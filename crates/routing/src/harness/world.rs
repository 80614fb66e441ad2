//! The simulated world the harness engine runs over: OS instances, the
//! wiring between them, and the bookkeeping convergence detection reads.

use super::events::FrameTallies;
use super::{HarnessEvent, WorkModel};
use crate::bgp::LOCAL_IFACE;
use crate::health::ProbeOutcome;
use crate::os::{DeviceOs, MgmtResponse};
use crate::plane::Planes;
use crystalnet_dataplane::{verdict, FibEntry, ForwardDecision, Ipv4Packet, NextHop};
use crystalnet_net::{DeviceId, Ipv4Prefix, LinkId};
use crystalnet_sim::{Engine, SimTime};
use crystalnet_telemetry::MemRecorder;
use std::collections::BTreeSet;
use std::sync::Arc;

#[derive(Clone, Copy)]
pub(crate) struct Adjacency {
    pub(crate) remote_dev: DeviceId,
    pub(crate) remote_iface: u32,
    pub(crate) link: LinkId,
}

/// Where a packet a device forwards out an interface ends up — the
/// forward arm every packet walker shares.
enum Egress {
    /// A locally attached subnet: delivered here.
    Local,
    /// The interface is not wired to anything.
    Unwired,
    /// The interface's link is down right now.
    LinkDown,
    /// Across an up link to the neighbour.
    Next(Adjacency),
}

/// What one hop resolved to.
#[derive(Clone, Copy)]
pub(crate) enum HopStep {
    /// The walk ends here, delivered or lost.
    End(ProbeOutcome),
    /// The walk leaves by next hop `.1` across the (up) adjacency `.0`.
    Forward(Adjacency, NextHop),
}

/// A hop's step plus the facts its callers charge, witness and capture
/// with.
pub(crate) struct ResolvedHop<'w> {
    pub(crate) step: HopStep,
    /// The device's OS, when the device is up.
    pub(crate) os: Option<&'w dyn DeviceOs>,
    /// The FIB entry the device holds for the destination — whatever the
    /// verdict on it was.
    pub(crate) matched: Option<(Ipv4Prefix, &'w FibEntry)>,
    /// Whether the dataplane actually ran its forwarding decision (the
    /// device is up and its forwarding was not silently disabled).
    pub(crate) decided: bool,
}

/// The simulated world: OS instances plus wiring.
#[derive(Clone)]
pub struct ControlPlaneWorld {
    /// One slot per device. A fork clones the handles, not the OSes: a
    /// slot stays shared with every fork taken since its last write, and
    /// [`unshared`] is the only way to write to one.
    pub(crate) oses: Vec<Option<Arc<dyn DeviceOs>>>,
    pub(crate) booted: Vec<bool>,
    /// adjacency[device][iface] (None when unwired).
    pub(crate) adjacency: Vec<Vec<Option<Adjacency>>>,
    /// Per-link state, indexed by [`LinkId`].
    pub(crate) link_up: Vec<bool>,
    pub(crate) work: Box<dyn WorkModel>,
    /// Completion time of the last event that changed routes: the
    /// report's `routing.last_route_activity_ns`.
    pub last_route_activity: SimTime,
    /// Total route operations performed across all devices.
    pub route_ops_total: u64,
    /// Per-device route-operation counters, indexed by [`DeviceId`]: the
    /// report's `routing.route_churn`.
    pub route_ops_by_dev: Vec<u64>,
    /// Per-device completion time of the latest route-changing work,
    /// indexed by [`DeviceId`]: the report's `routing.convergence_ns`
    /// for every device whose `route_ops_by_dev` is non-zero.
    pub last_route_op_by_dev: Vec<SimTime>,
    /// Boots completed: the report's `routing.devices_booted`.
    pub boots: u64,
    /// When the latest boot completed: the report's
    /// `routing.last_boot_done_ns`, once `boots` is non-zero.
    pub last_boot_done: SimTime,
    /// Frames and BGP messages sent and delivered, by kind: the report's
    /// `routing.frames_*` and `routing.bgp_*` series.
    pub(crate) frames: FrameTallies,
    /// Devices that crashed while handling events (health-monitor feed).
    pub crashes: Vec<(SimTime, DeviceId)>,
    /// Responses to asynchronously delivered management commands.
    pub mgmt_responses: Vec<(DeviceId, MgmtResponse)>,
    /// Per-device key counters (see [`HarnessEvent`]).
    pub(crate) dev_key_seq: Vec<u32>,
    /// Key counter for control-plane-script events.
    pub(crate) control_key_seq: u32,
    /// The packet-walk planes (probe mesh, flow load); a plane that is
    /// off keeps every one of its code paths dormant at zero cost.
    pub(crate) planes: Planes,
    /// Devices whose *dataplane* forwarding is silently dead while their
    /// control plane keeps running (gray-failure injection). Only plane
    /// walks consult this — sessions stay up, FIBs stay "correct".
    pub(crate) fwd_disabled: BTreeSet<DeviceId>,
    /// Observability sink for spans, events, the causal trace and the
    /// profile: off ([`MemRecorder::disabled`]) until an orchestration
    /// layer installs one that is on to collect a run report. It counts
    /// nothing: [`ControlPlaneSim::report`](super::ControlPlaneSim::report)
    /// reads every series from this world's own state. Boxed only because
    /// the benchmark package assigns a `Box::new(MemRecorder::…)` to it.
    pub recorder: Box<MemRecorder>,
}

impl ControlPlaneWorld {
    /// Mutable access to the work model (orchestrator hook).
    pub fn work_mut(&mut self) -> &mut dyn WorkModel {
        &mut *self.work
    }

    /// Shared access to the work model.
    pub fn work_ref(&self) -> &dyn WorkModel {
        &*self.work
    }

    /// The next tie-break key for an event emitted by `dev`.
    pub(crate) fn device_key(&mut self, dev: DeviceId) -> u64 {
        let seq = &mut self.dev_key_seq[dev.index()];
        *seq += 1;
        ((u64::from(dev.0) + 1) << 32) | u64::from(*seq)
    }

    /// The next tie-break key for a control-plane-script event.
    pub(crate) fn control_key(&mut self) -> u64 {
        self.control_key_seq += 1;
        u64::from(self.control_key_seq)
    }

    /// Exclusive access to `dev`'s OS, unshared first (see [`unshared`]).
    pub(crate) fn os_mut(&mut self, dev: DeviceId) -> Option<&mut dyn DeviceOs> {
        self.oses[dev.index()].as_mut().map(unshared)
    }

    /// The OS on `dev`, when the device booted and is still up. An id
    /// outside the topology has none.
    pub(crate) fn live_os(&self, dev: DeviceId) -> Option<&dyn DeviceOs> {
        self.oses
            .get(dev.index())?
            .as_deref()
            .filter(|os| self.booted[dev.index()] && !os.is_down())
    }

    /// Whether `link` is up right now.
    pub(crate) fn link_is_up(&self, link: LinkId) -> bool {
        self.link_up.get(link.index()).copied().unwrap_or(false)
    }

    /// Where a packet `dev` forwards out `iface` ends up.
    fn egress(&self, dev: DeviceId, iface: u32) -> Egress {
        if iface == LOCAL_IFACE {
            return Egress::Local;
        }
        match self.adjacency[dev.index()].get(iface as usize) {
            Some(Some(adj)) if self.link_is_up(adj.link) => Egress::Next(*adj),
            Some(Some(_)) => Egress::LinkDown,
            _ => Egress::Unwired,
        }
    }

    /// One packet at one device: the ladder every packet walker climbs —
    /// device up, forwarding alive, **one** longest-prefix match, the
    /// dataplane's [`verdict`] on the entry it found, then the forward
    /// arm ([`Self::egress`]). The planes pass `gray = true`; the
    /// synchronous trace passes `false` and so never sees silently
    /// disabled forwarding ([`Self::fwd_disabled`]).
    pub(crate) fn hop(
        &self,
        dev: DeviceId,
        ingress: Option<u32>,
        pkt: &Ipv4Packet,
        gray: bool,
    ) -> ResolvedHop<'_> {
        let Some(os) = self.live_os(dev) else {
            return ResolvedHop {
                step: HopStep::End(ProbeOutcome::DeviceDown),
                os: None,
                matched: None,
                decided: false,
            };
        };
        let matched = os.fib().lookup(pkt.dst);
        // Forwarding silently dead: sessions stay up, the FIB stays
        // "correct" — only a live walk can see this.
        let decided = !(gray && self.fwd_disabled.contains(&dev));
        // Dying at a device that *holds* a route is the gray failure; with
        // no route it is an ordinary miss.
        let died = HopStep::End(if matched.is_some() {
            ProbeOutcome::Blackhole
        } else {
            ProbeOutcome::NoRoute
        });
        let permits = |s, d| os.filter_permits(ingress, s, d);
        let step = if !decided {
            died
        } else {
            match verdict(matched.map(|(_, e)| e), os.local_addrs(), pkt, permits) {
                ForwardDecision::Deliver => HopStep::End(ProbeOutcome::Delivered),
                ForwardDecision::DropTtlExpired => HopStep::End(ProbeOutcome::TtlExpired),
                ForwardDecision::DropNoRoute => HopStep::End(ProbeOutcome::NoRoute),
                ForwardDecision::DropAcl => HopStep::End(ProbeOutcome::AclDrop),
                ForwardDecision::Forward(next) => match self.egress(dev, next.iface) {
                    Egress::Local => HopStep::End(ProbeOutcome::Delivered),
                    Egress::Unwired => HopStep::End(ProbeOutcome::NoRoute),
                    // The FIB still points at a dead link: stale state.
                    Egress::LinkDown => died,
                    Egress::Next(adj) => HopStep::Forward(adj, next),
                },
            }
        };
        ResolvedHop {
            step,
            os: Some(os),
            matched,
            decided,
        }
    }
}

/// Exclusive access to the OS in `slot` — the one way to write to a
/// device. An OS still shared with a fork (or with the emulation this
/// one was forked from) is copied first, so a write never shows on the
/// other side; an unshared one pays a reference-count check.
pub(crate) fn unshared(slot: &mut Arc<dyn DeviceOs>) -> &mut dyn DeviceOs {
    if Arc::get_mut(slot).is_none() {
        *slot = slot.clone_shared();
    }
    Arc::get_mut(slot).expect("a handle just checked or just made has one owner")
}

/// The engine type the harness runs on: typed events over the world.
pub type ControlPlaneEngine = Engine<ControlPlaneWorld, HarnessEvent>;
