//! The control-plane simulation harness: wires device OSes together over a
//! topology and runs them to convergence in virtual time.
//!
//! This is the engine room shared by the boundary differential validator
//! and the orchestrator: device firmwares ([`DeviceOs`]) exchange frames
//! over the topology's links, processing costs and link latencies are
//! provided by a pluggable [`WorkModel`] (the orchestrator plugs in one
//! backed by per-VM CPU servers, which is where Figure 9's curves come
//! from), and convergence is detected by route-activity quiescence —
//! matching the paper's route-ready definition, "the moment when all
//! routes are installed and stabilized in all switches" (§8.1).

mod events;
mod parallel;
mod world;

pub use events::HarnessEvent;
pub(crate) use events::{trace_here, HarnessEventKind};
use world::Adjacency;
pub(crate) use world::HopStep;
pub use world::{ControlPlaneEngine, ControlPlaneWorld};

use crate::health::{HealthState, Incident, ProbeConfig, ProbeOutcome};
use crate::os::{DeviceOs, MgmtCommand, MgmtResponse, OsEvent};
use crate::plane::{tick_event, Plane, Planes};
use crate::traffic::{TrafficConfig, TrafficState};
use crystalnet_dataplane::{Fib, ForwardDecision, Ipv4Packet};
use crystalnet_net::{DeviceId, Ipv4Addr, Ipv4Prefix, LinkId, Topology};
use crystalnet_sim::{Engine, SimDuration, SimTime};
use crystalnet_telemetry::profile::keys;
use crystalnet_telemetry::{MemRecorder, RunReport};
use events::dispatch;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Work classes a device performs (costed by the [`WorkModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// Firmware boot.
    Boot,
    /// Handling an event that touched `n` routes.
    RouteOps(usize),
}

/// Provides processing-completion times and link latencies.
///
/// The plain harness uses [`UniformWorkModel`]; the orchestrator
/// substitutes a model that queues work on the hosting VM's CPU cores,
/// coupling convergence time to VM packing density.
pub trait WorkModel: Send {
    /// When work of `kind` submitted by `dev` at `now` completes.
    fn completion(&mut self, dev: DeviceId, kind: WorkKind, now: SimTime) -> SimTime;
    /// One-way delay of a frame sent on `link` at `now`.
    ///
    /// Must be a pure function of `(link, now)`, as both models in this
    /// workspace are: the packet-walk planes ask it for a hop they run
    /// inline at that hop's own virtual time, in an order that differs
    /// from an event-per-hop run's, and the sharded settle probes it for
    /// its lookahead.
    fn link_delay(&mut self, link: LinkId, now: SimTime) -> SimDuration;
    /// A deep copy of this model: what cloning the world (a fork) does
    /// with it.
    fn clone_boxed(&self) -> Box<dyn WorkModel>;
    /// Downcasting hook so orchestration layers can reach their concrete
    /// model (e.g. to install per-device cost tables after construction).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Shared-reference downcasting hook, for reading the concrete model.
    fn as_any(&self) -> &dyn std::any::Any;
}

impl Clone for Box<dyn WorkModel> {
    fn clone(&self) -> Self {
        self.clone_boxed()
    }
}

/// Fixed-cost work model for protocol-level tests.
#[derive(Debug, Clone)]
pub struct UniformWorkModel {
    /// CPU time per route operation.
    pub per_route_op: SimDuration,
    /// Boot duration.
    pub boot: SimDuration,
    /// One-way link latency.
    pub latency: SimDuration,
}

impl Default for UniformWorkModel {
    fn default() -> Self {
        UniformWorkModel {
            per_route_op: SimDuration::from_micros(2),
            boot: SimDuration::from_secs(30),
            latency: SimDuration::from_micros(50),
        }
    }
}

impl WorkModel for UniformWorkModel {
    fn completion(&mut self, _dev: DeviceId, kind: WorkKind, now: SimTime) -> SimTime {
        match kind {
            WorkKind::Boot => now + self.boot,
            WorkKind::RouteOps(n) => now + self.per_route_op * (n as u64),
        }
    }

    fn link_delay(&mut self, _link: LinkId, _now: SimTime) -> SimDuration {
        self.latency
    }

    fn clone_boxed(&self) -> Box<dyn WorkModel> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// One device's handling of a synchronously traced packet
/// ([`ControlPlaneSim::walk_packet`]).
pub struct PacketHop<'w> {
    /// The device the packet is at.
    pub device: DeviceId,
    /// The interface it arrived on (`None` at the injecting device).
    pub ingress: Option<u32>,
    /// What the device did with it: `Forward` with the next hop it chose
    /// everywhere but at the last device, whose decision is the packet's
    /// fate.
    pub decision: ForwardDecision,
    /// The device's OS, when the device is up.
    pub os: Option<&'w dyn DeviceOs>,
    /// The FIB prefix the device matched for the destination, whatever
    /// the decision on it was.
    pub matched: Option<Ipv4Prefix>,
}

/// The control-plane simulation: an [`Engine`] over [`ControlPlaneWorld`].
///
/// A clone is a fork: *positionally exact*, because queued events keep
/// their `(time, key, seq)` ranks and per-device key counters resume where
/// the original's stand, so identical inputs produce bit-identical
/// behaviour on both. Each device's OS stays one instance behind an `Arc`
/// until either side is about to write to it, and only that side copies
/// it then ([`DeviceOs::clone_boxed`]); a clone therefore costs what it
/// later touches, and `Arc::ptr_eq` on two sims' slots proves a device
/// untouched since. The work model and the recorder are deep-copied.
#[derive(Clone)]
pub struct ControlPlaneSim {
    /// The event engine (exposed for orchestration layers).
    pub engine: ControlPlaneEngine,
}

impl ControlPlaneSim {
    /// An empty harness wired to `topo`'s links.
    #[must_use]
    pub fn new(topo: &Topology, work: Box<dyn WorkModel>) -> Self {
        let n = topo.device_count();
        let mut adjacency: Vec<Vec<Option<Adjacency>>> = (0..n)
            .map(|i| {
                let dev = topo.device(DeviceId(i as u32));
                (0..dev.ifaces.len()).map(|_| None).collect()
            })
            .collect();
        for (lid, link) in topo.links() {
            adjacency[link.a.device.index()][link.a.iface as usize] = Some(Adjacency {
                remote_dev: link.b.device,
                remote_iface: link.b.iface,
                link: lid,
            });
            adjacency[link.b.device.index()][link.b.iface as usize] = Some(Adjacency {
                remote_dev: link.a.device,
                remote_iface: link.a.iface,
                link: lid,
            });
        }
        ControlPlaneSim {
            engine: Engine::new(ControlPlaneWorld {
                oses: (0..n).map(|_| None).collect(),
                booted: vec![false; n],
                adjacency,
                link_up: vec![true; topo.link_count()],
                work,
                last_route_activity: SimTime::ZERO,
                route_ops_total: 0,
                route_ops_by_dev: vec![0; n],
                crashes: Vec::new(),
                mgmt_responses: Vec::new(),
                causal_pending: 0,
                dev_key_seq: vec![0; n],
                control_key_seq: 0,
                shard_route: None,
                planes: Planes::default(),
                fwd_disabled: BTreeSet::new(),
                recorder: Box::new(MemRecorder::disabled()),
            }),
        }
    }

    /// Installs a firmware instance on `dev` (not yet booted).
    pub fn add_os(&mut self, dev: DeviceId, mut os: Box<dyn DeviceOs>) {
        os.set_tracing(self.engine.world.recorder.trace_enabled());
        self.engine.world.oses[dev.index()] = Some(Arc::from(os));
    }

    /// Schedules `dev` to boot at `at` (firmware boot latency is added by
    /// the work model).
    pub fn boot_device(&mut self, dev: DeviceId, at: SimTime) {
        self.engine.world.causal_pending += 1;
        let key = self.engine.world.control_key();
        self.engine.schedule_event_at(
            at,
            HarnessEvent {
                key,
                cause: None,
                kind: HarnessEventKind::BootStart(dev),
            },
        );
    }

    /// Boots every device with an installed OS at `at`.
    pub fn boot_all(&mut self, at: SimTime) {
        let devs: Vec<DeviceId> = self
            .engine
            .world
            .oses
            .iter()
            .enumerate()
            .filter(|(_, os)| os.is_some())
            .map(|(i, _)| DeviceId(i as u32))
            .collect();
        for dev in devs {
            self.boot_device(dev, at);
        }
    }

    /// Takes a link down at `at`: both ends get `LinkDown`, and in-flight
    /// frames on the link are dropped from then on.
    pub fn link_down(&mut self, topo_link: (DeviceId, u32, DeviceId, u32, LinkId), at: SimTime) {
        self.schedule_link_state(topo_link, at, false);
    }

    /// Brings a link back up at `at`.
    pub fn link_up(&mut self, topo_link: (DeviceId, u32, DeviceId, u32, LinkId), at: SimTime) {
        self.schedule_link_state(topo_link, at, true);
    }

    fn schedule_link_state(
        &mut self,
        topo_link: (DeviceId, u32, DeviceId, u32, LinkId),
        at: SimTime,
        up: bool,
    ) {
        let (a, ia, b, ib, lid) = topo_link;
        self.engine.world.causal_pending += 1;
        let key = self.engine.world.control_key();
        self.engine.schedule_event_at(
            at,
            HarnessEvent {
                key,
                cause: None,
                kind: HarnessEventKind::LinkState {
                    lid,
                    up,
                    a,
                    ia,
                    b,
                    ib,
                },
            },
        );
    }

    /// Resolves a link's endpoints for [`Self::link_down`]/[`Self::link_up`].
    #[must_use]
    pub fn link_endpoints(topo: &Topology, lid: LinkId) -> (DeviceId, u32, DeviceId, u32, LinkId) {
        let link = topo.link(lid);
        (
            link.a.device,
            link.a.iface,
            link.b.device,
            link.b.iface,
            lid,
        )
    }

    /// Delivers a management command at `at`; the response lands in
    /// [`ControlPlaneWorld::mgmt_responses`].
    pub fn mgmt(&mut self, dev: DeviceId, cmd: MgmtCommand, at: SimTime) {
        self.engine.world.causal_pending += 1;
        let key = self.engine.world.control_key();
        self.engine.schedule_event_at(
            at,
            HarnessEvent {
                key,
                cause: None,
                kind: HarnessEventKind::Mgmt(dev, cmd),
            },
        );
    }

    /// Synchronously executes a management command right now and returns
    /// the response (the jumpbox SSH round trip is treated as instant);
    /// nothing is added to [`ControlPlaneWorld::mgmt_responses`].
    pub fn mgmt_sync(&mut self, dev: DeviceId, cmd: MgmtCommand) -> Option<MgmtResponse> {
        let before = self.engine.world.mgmt_responses.len();
        dispatch(&mut self.engine, dev, OsEvent::Mgmt(cmd));
        // The response is the caller's: leaving it in the log would grow
        // it (and every fork's copy of it) by one entry per call.
        let mut mine = self.engine.world.mgmt_responses.drain(before..);
        mine.next().map(|(_, r)| r)
    }

    /// Runs every event with `time <= at`, then advances the clock to
    /// `at`, leaving later events queued.
    ///
    /// The fault subsystem uses this to interleave a fault timeline with
    /// convergence: run up to the next planned fault instant, mutate the
    /// world (power a VM's devices off, flap a link), and resume — so
    /// in-flight causal chains on untouched devices keep playing out
    /// across injections.
    pub fn run_until(&mut self, at: SimTime) {
        self.engine.run_until(at);
    }

    /// Runs until no route activity occurs within `quiet` of the last
    /// route change, or gives up past `deadline`.
    ///
    /// Returns the route-ready instant (the completion time of the last
    /// route-changing work) on convergence; `None` on deadline overrun.
    ///
    /// Each step's horizon is the instant past which the loop could
    /// stop: `last + quiet` (capped at `deadline`) while nothing causal
    /// is pending, `deadline` otherwise. The clock ends where it would
    /// had every walk hop run as an event of its own.
    pub fn run_until_quiet(&mut self, quiet: SimDuration, deadline: SimTime) -> Option<SimTime> {
        let profiled = self
            .engine
            .world
            .recorder
            .profiling_enabled()
            .then(Instant::now);
        let out = loop {
            if self.engine.now() > deadline {
                break None;
            }
            let last = self.engine.world.last_route_activity;
            let idle = self.engine.world.causal_pending == 0;
            match self.engine.next_event_time() {
                // Nothing left to happen: converged.
                None => break Some(last),
                // Only pure timers remain and the next one lies beyond
                // the quiet horizon: every causal chain has played out.
                Some(t) if idle && t > last + quiet => break Some(last),
                Some(_) => {
                    let horizon = if idle {
                        (last + quiet).min(deadline)
                    } else {
                        deadline
                    };
                    self.engine.step_within(horizon);
                }
            }
        };
        self.engine.catch_up_inline();
        if let Some(t0) = profiled {
            self.engine
                .world
                .recorder
                .profile_add(keys::ENGINE_RUN, t0.elapsed().as_nanos() as u64);
        }
        out
    }

    /// The FIB of `dev`.
    #[must_use]
    pub fn fib(&self, dev: DeviceId) -> Option<&Fib> {
        self.engine.world.oses[dev.index()]
            .as_deref()
            .map(|os| os.fib())
    }

    /// The OS instance on `dev`.
    #[must_use]
    pub fn os(&self, dev: DeviceId) -> Option<&dyn DeviceOs> {
        self.engine.world.oses[dev.index()].as_deref()
    }

    /// The shared handle of the OS instance on `dev`. Two sims hold the
    /// same handle (`Arc::ptr_eq`) exactly when one was forked from the
    /// other and neither has written to the device since; a clone of it
    /// keeps that instance alive, and unchanged, whatever either does
    /// next.
    #[must_use]
    pub fn os_handle(&self, dev: DeviceId) -> Option<&Arc<dyn DeviceOs>> {
        self.engine.world.oses[dev.index()].as_ref()
    }

    /// Mutable OS access (test instrumentation); unshares the OS first.
    pub fn os_mut(&mut self, dev: DeviceId) -> Option<&mut dyn DeviceOs> {
        self.engine.world.os_mut(dev)
    }

    /// Powers a device's sandbox off instantly (VM failure, kill):
    /// frames stop reaching it until a later [`Self::boot_device`].
    pub fn power_off(&mut self, dev: DeviceId) {
        self.engine.world.booted[dev.index()] = false;
    }

    /// Replaces a device's OS instance (used when a VM is rebuilt and its
    /// sandboxes restart from scratch). The device must be re-booted.
    pub fn replace_os(&mut self, dev: DeviceId, mut os: Box<dyn DeviceOs>) {
        os.set_tracing(self.engine.world.recorder.trace_enabled());
        self.engine.world.booted[dev.index()] = false;
        self.engine.world.oses[dev.index()] = Some(Arc::from(os));
    }

    /// Decommissions `dev` permanently: drops its OS instance and removes
    /// every queued event addressed to it (in-flight frames, timers,
    /// pending management commands), fixing up the causal-quiescence
    /// accounting so convergence detection stays exact. In-flight packet
    /// walks are kept: one that reaches `dev` ends there `DeviceDown`, and
    /// a report bound for `dev` still lands on its gauges. The caller is
    /// responsible for taking the device's links down first so neighbors
    /// observe the loss; after removal the device can not be re-booted
    /// (unlike [`Self::power_off`], which keeps the OS around).
    pub fn remove_device(&mut self, dev: DeviceId) {
        self.engine.world.booted[dev.index()] = false;
        self.engine.world.oses[dev.index()] = None;
        // Drain-and-requeue preserves event identity: ids are derived
        // from `(time, key)`, both unchanged by the round trip.
        let drained = self.engine.drain_pending();
        for (at, ev) in drained {
            if ev.target_device() == Some(dev) {
                if ev.is_causal() {
                    self.engine.world.causal_pending -= 1;
                }
            } else {
                self.engine.schedule_event_at(at, ev);
            }
        }
    }

    /// Whether `dev` booted and is still up.
    #[must_use]
    pub fn is_up(&self, dev: DeviceId) -> bool {
        self.engine.world.live_os(dev).is_some()
    }

    /// Synchronously traces `packet` hop by hop from `from` using the
    /// current FIBs (the `InjectPackets` + `PullPackets` path over a
    /// converged network). Returns the device path and the final fate.
    pub fn trace_packet(
        &self,
        from: DeviceId,
        packet: &Ipv4Packet,
    ) -> (Vec<DeviceId>, ForwardDecision) {
        let (mut path, mut fate) = (Vec::new(), ForwardDecision::DropNoRoute);
        self.walk_packet(from, packet, |hop| {
            path.push(hop.device);
            fate = hop.decision;
        });
        (path, fate)
    }

    /// [`Self::trace_packet`] hop by hop: `visit` sees every device the
    /// packet reaches, in path order, with what that device did with it.
    /// Like every synchronous trace it reads FIBs and link state as they
    /// stand and does not see silently disabled forwarding
    /// ([`Self::set_forwarding`]) — only the planes' live walks do.
    pub fn walk_packet(
        &self,
        from: DeviceId,
        packet: &Ipv4Packet,
        mut visit: impl FnMut(PacketHop<'_>),
    ) {
        let world = &self.engine.world;
        let mut pkt = packet.clone();
        let (mut device, mut ingress) = (from, None);
        loop {
            let hop = world.hop(device, ingress, &pkt, false);
            let (decision, next) = match hop.step {
                HopStep::Forward(adj, next) => (ForwardDecision::Forward(next), Some(adj)),
                HopStep::End(outcome) => (
                    match outcome {
                        ProbeOutcome::Delivered => ForwardDecision::Deliver,
                        ProbeOutcome::TtlExpired => ForwardDecision::DropTtlExpired,
                        ProbeOutcome::AclDrop => ForwardDecision::DropAcl,
                        ProbeOutcome::NoRoute
                        | ProbeOutcome::Blackhole
                        | ProbeOutcome::DeviceDown => ForwardDecision::DropNoRoute,
                    },
                    None,
                ),
            };
            visit(PacketHop {
                device,
                ingress,
                decision,
                os: hop.os,
                matched: hop.matched.map(|(prefix, _)| prefix),
            });
            let Some(adj) = next else { return };
            // The dataplane said `Forward`, so the TTL was at least 2: it
            // strictly falls, which is what ends a forwarding loop.
            pkt.ttl -= 1;
            (device, ingress) = (adj.remote_dev, Some(adj.remote_iface));
        }
    }

    /// Turns the health plane on: installs the probe-mesh state over
    /// `population` (the probe-able devices with their loopback
    /// addresses) and schedules the first probe round at
    /// `first_tick_at`. Ticks then self-perpetuate every `cfg.period`
    /// until the simulation ends; they are non-causal, so convergence
    /// detection is unaffected.
    pub fn enable_health(
        &mut self,
        cfg: ProbeConfig,
        population: Vec<(DeviceId, Ipv4Addr)>,
        first_tick_at: SimTime,
    ) {
        self.engine.world.planes.health = Some(HealthState::new(cfg, population));
        self.engine
            .schedule_event_at(first_tick_at, tick_event(Plane::Probe, 0));
    }

    /// The health plane's current state, when enabled.
    #[must_use]
    pub fn health(&self) -> Option<&HealthState> {
        self.engine.world.planes.health.as_ref()
    }

    /// Turns the traffic plane on: installs the flow-generation state
    /// over `population` (the flow-capable devices with their loopback
    /// addresses) and schedules the first traffic round at
    /// `first_tick_at`. Ticks then self-perpetuate every `cfg.period`
    /// until the simulation ends; they are non-causal, so convergence
    /// detection is unaffected.
    pub fn enable_traffic(
        &mut self,
        cfg: TrafficConfig,
        population: Vec<(DeviceId, Ipv4Addr)>,
        first_tick_at: SimTime,
    ) {
        self.engine.world.planes.traffic = Some(TrafficState::new(cfg, population));
        self.engine
            .schedule_event_at(first_tick_at, tick_event(Plane::Flow, 0));
    }

    /// The traffic plane's current state, when enabled.
    #[must_use]
    pub fn traffic(&self) -> Option<&TrafficState> {
        self.engine.world.planes.traffic.as_ref()
    }

    /// The incident timeline both planes land on, in
    /// [`Incident::sort_key`] order; empty while both planes are off.
    #[must_use]
    pub fn incidents(&self) -> &[Incident] {
        &self.engine.world.planes.incidents
    }

    /// The recorder's report plus the series this world keeps itself,
    /// which the recorder therefore does not count: the plane totals,
    /// each plane's incident count, route churn per device and the last
    /// route activity. Each appears once it has counted something, as a
    /// counter would; a `traffic.bytes_*` series goes with its flow
    /// count. An off recorder's report is [`RunReport::disabled`].
    #[must_use]
    pub fn report(&self) -> RunReport {
        let world = &self.engine.world;
        let mut report = world.recorder.report();
        if !world.recorder.enabled() {
            return report;
        }
        let incidents = self.incidents();
        let from_flows = incidents.iter().filter(|i| i.kind.is_traffic()).count() as u64;
        let from_probes = incidents.len() as u64 - from_flows;
        let (at, ops) = (world.last_route_activity.as_nanos(), world.route_ops_total);
        // `(series, value, count)`: present once `count` is non-zero.
        let mut series = vec![("routing.last_route_activity_ns", at, ops)];
        if let Some(h) = self.health() {
            let (sent, delivered, lost) = (h.probes_sent, h.probes_delivered, h.probes_lost);
            series.extend([
                ("health.probes_sent", sent, sent),
                ("health.probes_delivered", delivered, delivered),
                ("health.probes_lost", lost, lost),
                ("health.incidents", from_probes, from_probes),
            ]);
        }
        if let Some(t) = self.traffic() {
            let (sent, delivered, lost) = (t.flows_sent, t.flows_delivered, t.flows_lost);
            series.extend([
                ("traffic.flows_sent", sent, sent),
                ("traffic.bytes_offered", t.bytes_offered, sent),
                ("traffic.flows_delivered", delivered, delivered),
                ("traffic.bytes_delivered", t.bytes_delivered, delivered),
                ("traffic.flows_lost", lost, lost),
                ("traffic.bytes_lost", t.bytes_lost, lost),
                ("traffic.flows_rerouted", t.flows_rerouted, t.flows_rerouted),
                ("traffic.incidents", from_flows, from_flows),
            ]);
        }
        for (name, value, count) in series {
            if count > 0 {
                report.counters.insert(name.to_string(), value);
            }
        }
        let churn: BTreeMap<u32, u64> = (world.route_ops_by_dev.iter().enumerate())
            .filter(|&(_, &n)| n > 0)
            .map(|(dev, &n)| (dev as u32, n))
            .collect();
        if !churn.is_empty() {
            let name = "routing.route_churn".to_string();
            report.per_device.insert(name, churn);
        }
        report
    }

    /// Silently kills (or restores) `dev`'s dataplane forwarding while
    /// its control plane keeps running — the canonical gray failure.
    /// Sessions stay up and the FIB keeps "converging"; only a live
    /// probe can observe the difference.
    pub fn set_forwarding(&mut self, dev: DeviceId, enabled: bool) {
        if enabled {
            self.engine.world.fwd_disabled.remove(&dev);
        } else {
            self.engine.world.fwd_disabled.insert(dev);
        }
    }
}

/// Builds a harness where every device in `topo` runs a BGP firmware
/// image generated from its production configuration, with the vendor
/// profile chosen by `profile_for`.
///
/// Devices for which `profile_for` returns `None` get no OS (useful for
/// leaving externals dark or substituting speakers).
pub fn build_bgp_sim(
    topo: &Topology,
    work: Box<dyn WorkModel>,
    mut profile_for: impl FnMut(
        DeviceId,
        &crystalnet_net::Device,
    ) -> Option<crate::vendor::VendorProfile>,
) -> ControlPlaneSim {
    let mut sim = ControlPlaneSim::new(topo, work);
    for (id, dev) in topo.devices() {
        if let Some(profile) = profile_for(id, dev) {
            let cfg = crystalnet_config::generate_device(topo, id);
            let os = crate::bgp::BgpRouterOs::new(profile, cfg, dev.loopback);
            sim.add_os(id, Box::new(os));
        }
    }
    sim
}

/// [`build_bgp_sim`] with every device (externals included) running the
/// released profile of its own vendor — the "production ground truth"
/// configuration used for speaker synthesis and differential validation.
pub fn build_full_bgp_sim(topo: &Topology, work: Box<dyn WorkModel>) -> ControlPlaneSim {
    build_bgp_sim(topo, work, |_, dev| {
        Some(crate::vendor::VendorProfile::for_vendor(dev.vendor))
    })
}
