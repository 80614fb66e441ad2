//! `Mockup` and the running emulation: the heart of CrystalNet.
//!
//! [`mockup`] turns a [`PrepareOutput`] into a live [`Emulation`]:
//!
//! 1. **Network-ready phase** — on every VM (in parallel), start PhyNet
//!    containers, create virtual interfaces, and wire veth/bridge/VXLAN
//!    links plus the management overlay. All of this is CPU work queued
//!    on the VM's cores; the phase ends when the slowest VM drains.
//! 2. **Route-ready phase** — boot the device firmwares (vendor-specific
//!    boot latency on top of VM CPU contention), let BGP converge, and
//!    detect quiescence. This phase dominates Mockup (§8.2) and depends
//!    on VM packing density, which is exactly what Figure 8's VM-count
//!    sweep shows.
//!
//! The returned [`Emulation`] exposes the Table 2 control/monitor surface.
//! Its methods are grouped by concept in sibling files: the device
//! lifecycle (`Reload`, `Connect`/`Disconnect`, VM failure and recovery,
//! `Clear`/`Destroy`) in `lifecycle.rs`, the read side (`PullStates`,
//! `PullConfig`, `InjectPackets`/`PullPackets`, reports, traces) in
//! `inspect.rs`; options and the typed error in `options.rs`, the VM
//! work model, which owns the cloud fleet, in `work.rs`.

pub use crate::inspect::DeviceState;
use crate::metrics::{JournalKind, MockupMetrics, RecoveryJournal};
pub use crate::options::{EmulationError, MockupOptions, MockupOptionsBuilder};
use crate::plan::sandbox_kind;
use crate::prepare::PrepareOutput;
pub use crate::work::VmWorkModel;
use crystalnet_config::DeviceConfig;
use crystalnet_dataplane::TraceStore;
use crystalnet_net::{DeviceId, IdMap, Ipv4Addr, Topology};
use crystalnet_routing::{BgpRouterOs, ControlPlaneSim};
use crystalnet_sim::{SimDuration, SimRng, SimTime};
use crystalnet_telemetry::profile::keys as profile_keys;
use crystalnet_telemetry::{FieldValue, MemRecorder};
use crystalnet_vnet::{
    Cloud, CloudParams, ContainerEngine, ContainerId, ContainerKind, ManagementOverlay,
    VirtualLink, VmId, VniAllocator,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// One device's sandbox wiring on its VM.
#[derive(Debug, Clone, Copy)]
pub struct Sandbox {
    /// VM index in the plan.
    pub vm: usize,
    /// The PhyNet (namespace-holding) container.
    pub phynet: ContainerId,
    /// The device-software container (or speaker agent).
    pub device: ContainerId,
}

/// A running emulation. A clone is an independent fork of it
/// ([`Emulation::fork`](crate::session) wraps one in a session).
#[derive(Clone)]
pub struct Emulation {
    /// The production topology being emulated (the prepare artifact's
    /// copy, shared).
    pub topo: Arc<Topology>,
    /// The control-plane simulation (devices, links, virtual time, and
    /// the cloud fleet inside its work model: [`Emulation::cloud`]).
    pub sim: ControlPlaneSim,
    /// Provisioned VM handles, indexed like the plan.
    pub vm_ids: Vec<VmId>,
    /// Per-VM container engines.
    pub engines: Vec<ContainerEngine>,
    /// Per-device sandbox wiring.
    pub sandboxes: BTreeMap<DeviceId, Sandbox>,
    /// Provisioned virtual links.
    pub vlinks: Vec<VirtualLink>,
    /// The management overlay (jumpbox, DNS).
    pub mgmt: ManagementOverlay,
    /// Bring-up metrics.
    pub metrics: MockupMetrics,
    /// Captured packet traces.
    pub traces: TraceStore,
    /// The prepare artifact this emulation was built from. Shared by
    /// `Arc` so forks reference the same immutable artifact and the
    /// whole emulation stays `Send` (forks can run on worker threads).
    pub prep: Arc<PrepareOutput>,
    /// Structured record of every fault handled and recovery performed.
    pub journal: RecoveryJournal,
    /// Per-VM liveness as the health monitor sees it (`true` = declared
    /// dead and not yet restored).
    pub(crate) vm_down: Vec<bool>,
    /// Devices mid-recovery: control/monitor calls answer
    /// [`EmulationError::DeviceRecovering`] until this instant passes.
    pub(crate) recovering_until: BTreeMap<DeviceId, SimTime>,
    /// Speaker incarnation epochs; bumped on every speaker restart so the
    /// fresh session token forces peers to flush and resync.
    pub(crate) speaker_epochs: BTreeMap<DeviceId, u64>,
    /// VNI allocator, retained so quarantine re-placement can provision
    /// replacement VXLAN tunnels without clashing with bring-up VNIs.
    pub(crate) vnis: VniAllocator,
    pub(crate) options: MockupOptions,
    /// Running configurations applied after `Prepare` (via
    /// [`Emulation::reload`] or `apply_change`); consulted before
    /// `prep.configs` so `pull_config` and fault recovery always see the
    /// *effective* config, not the original snapshot.
    pub(crate) config_overrides: BTreeMap<DeviceId, DeviceConfig>,
    /// Speaker scripts swapped in by `apply_change`; fault recovery
    /// rebuilds a swapped speaker from these, not the prepared plan.
    pub(crate) speaker_overrides: BTreeMap<DeviceId, Vec<(u32, crystalnet_routing::SpeakerScript)>>,
    /// The *current* emulated set — `prep.emulated` minus devices removed
    /// by `apply_change`.
    pub(crate) emulated_now: BTreeSet<DeviceId>,
    /// Staged steps in virtual-time order, kept for incident
    /// correlation: `(applied_at, summary)` per measured step — a change
    /// set or a tool run (`measure_step` is the only writer).
    pub(crate) change_log: Vec<(SimTime, String)>,
    pub(crate) next_signature: u16,
    /// Loopback → device over `topo` (`inspect::loopback_index`), built
    /// at mockup and shared with every fork.
    pub(crate) loopbacks: Arc<IdMap<Ipv4Addr, DeviceId>>,
}

/// Builds and converges an emulation from a prepare artifact.
///
/// # Panics
///
/// Panics if the emulation fails to converge within `options.deadline` —
/// a deliberate loud failure, since every §8 experiment depends on
/// convergence.
#[must_use]
pub fn mockup(prep: Arc<PrepareOutput>, options: MockupOptions) -> Emulation {
    let t_mockup = options.profiling.then(Instant::now);
    let topo = Arc::clone(&prep.topo);
    let plan = &prep.vm_plan;

    // VMs were spawned during Prepare; they are running at t = 0.
    let mut cloud = Cloud::new(CloudParams::default(), options.seed);
    let mut vm_ids = Vec::with_capacity(plan.vms.len());
    for planned in &plan.vms {
        let (id, _) = cloud.provision(planned.sku, SimTime::ZERO);
        cloud.mark_running(id, SimTime::ZERO);
        vm_ids.push(id);
    }

    let jitter_seed = SimRng::for_component(options.seed, "work").below(u64::MAX);
    let work = VmWorkModel::new(cloud, jitter_seed, &topo);
    let mut sim = ControlPlaneSim::new(&topo, Box::new(work));
    if options.telemetry || options.profiling {
        let mut rec = MemRecorder::with_trace_capacity(options.trace_capacity);
        if options.profiling {
            rec = rec.with_profiling();
        }
        sim.engine.world.recorder = Box::new(rec);
    }

    // The emulation starts out empty — no sandbox, no link, no firmware —
    // and the two phases below fill it in through the same lifecycle
    // steps that later re-place and revive devices.
    let mut emu = Emulation {
        topo: Arc::clone(&topo),
        sim,
        engines: vec![ContainerEngine::new(); vm_ids.len()],
        vm_down: vec![false; vm_ids.len()],
        vm_ids,
        sandboxes: BTreeMap::new(),
        vlinks: Vec::new(),
        mgmt: ManagementOverlay::new(),
        metrics: MockupMetrics::default(),
        traces: TraceStore::new(),
        journal: RecoveryJournal::default(),
        recovering_until: BTreeMap::new(),
        speaker_epochs: BTreeMap::new(),
        vnis: VniAllocator::new(),
        options,
        config_overrides: BTreeMap::new(),
        speaker_overrides: BTreeMap::new(),
        emulated_now: prep.emulated.clone(),
        change_log: Vec::new(),
        next_signature: 1,
        loopbacks: Arc::new(crate::inspect::loopback_index(&topo)),
        prep: Arc::clone(&prep),
    };

    // ------------------------------------------------------------------
    // Phase 1: PhyNet containers, interfaces, links, management overlay.
    // ------------------------------------------------------------------
    for (vm_idx, planned) in plan.vms.iter().enumerate() {
        emu.mgmt.attach_vm(emu.vm_ids[vm_idx]);
        for &dev in planned.devices.iter().chain(&planned.speakers) {
            emu.place(dev, vm_idx, SimTime::ZERO);
        }
    }
    // Virtual links between placed sandboxes (VXLAN for inter-VM spans);
    // a link with an end outside the emulation is skipped.
    for (lid, _) in topo.links() {
        if let Some(vl) = emu.wire(lid, SimTime::ZERO) {
            emu.vlinks.push(vl);
        }
    }
    let network_ready_at = emu.fleet_drained_at(SimTime::ZERO)
        // Orchestrator-side batching / verification overhead.
        + SimDuration::from_secs(5);

    // ------------------------------------------------------------------
    // Phase 2: boot firmware, converge routes.
    // ------------------------------------------------------------------
    let mut rng = SimRng::for_component(emu.options.seed, "mockup");
    // Device firmwares.
    for (dev, cfg) in &prep.configs {
        let profile = emu.options.profile_for(&topo, *dev);
        let cost = (
            sandbox_kind(topo.device(*dev).vendor).start_cpu() + profile.cpu_boot,
            rng.jitter(profile.boot_time, 0.2),
            profile.cpu_per_route_op,
        );
        VmWorkModel::of(&mut emu.sim).set_device_cost(*dev, cost);
        let os = BgpRouterOs::new(profile, cfg.clone(), topo.device(*dev).loopback);
        emu.sim.add_os(*dev, Box::new(os));
    }
    // Speakers.
    for (dev, _) in &prep.speaker_plan.scripts {
        if let Some(os) = prep.speaker_plan.build_os(&topo, *dev) {
            let cost = (
                ContainerKind::Speaker.start_cpu(),
                SimDuration::from_secs(3),
                SimDuration::from_micros(5),
            );
            VmWorkModel::of(&mut emu.sim).set_device_cost(*dev, cost);
            emu.sim.add_os(*dev, Box::new(os));
        }
    }
    emu.sim.boot_all(network_ready_at);

    // Packet-walk planes (probe mesh, flow load): both span the emulated
    // BGP routers (speakers announce, they do not carry traffic) and
    // start one period after network-ready, so early rounds observe the
    // boot transient — deterministically, since plane events are
    // non-causal and never perturb convergence. A plane seed of 0 means
    // "derive from the run seed".
    let population: Vec<(DeviceId, Ipv4Addr)> = prep
        .configs
        .iter()
        .map(|(dev, _)| (*dev, topo.device(*dev).loopback))
        .collect();
    if let Some(mut cfg) = emu.options.health_probes.clone() {
        if cfg.seed == 0 {
            cfg.seed = emu.options.seed;
        }
        let first_tick = network_ready_at + cfg.period;
        emu.sim.enable_health(cfg, population.clone(), first_tick);
    }
    if let Some(mut cfg) = emu.options.traffic.clone() {
        if cfg.seed == 0 {
            cfg.seed = emu.options.seed;
        }
        let first_tick = network_ready_at + cfg.period;
        emu.sim.enable_traffic(cfg, population, first_tick);
    }

    let t_converge = emu.options.profiling.then(Instant::now);
    let route_ready_at = emu
        .sim
        .run_until_quiet(emu.options.quiet, network_ready_at + emu.options.deadline)
        .expect("emulation failed to converge before the deadline");
    let rec = &mut *emu.sim.engine.world.recorder;
    if let Some(t0) = t_converge {
        rec.profile_add(
            profile_keys::MOCKUP_CONVERGE,
            t0.elapsed().as_nanos() as u64,
        );
    }
    let route_ops = emu.sim.engine.world.route_ops_total;
    emu.metrics = MockupMetrics::from_phases(network_ready_at, route_ready_at, route_ops);

    // Phase spans + orchestrator events.
    if rec.enabled() {
        let boot_end = rec
            .gauge("routing.last_boot_done_ns")
            .map_or(network_ready_at, SimTime);
        rec.span("mockup", None, SimTime::ZERO, route_ready_at);
        rec.span("boot", None, network_ready_at, boot_end);
        rec.event(
            network_ready_at,
            "network_ready",
            vec![
                ("vms", FieldValue::U64(emu.vm_ids.len() as u64)),
                ("vlinks", FieldValue::U64(emu.vlinks.len() as u64)),
            ],
        );
        rec.event(
            route_ready_at,
            "route_ready",
            vec![("route_ops", FieldValue::U64(route_ops))],
        );
    }
    if let Some(t0) = t_mockup {
        rec.profile_add(profile_keys::MOCKUP, t0.elapsed().as_nanos() as u64);
    }

    let fault_plan = emu.options.fault_plan.clone();
    if !fault_plan.is_empty() {
        emu.run_fault_plan(&fault_plan)
            .expect("options.fault_plan failed to execute");
    }
    emu
}

impl Emulation {
    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.sim.engine.now()
    }

    /// The error for a `dev` that is not (or no longer) emulated, named
    /// by its production hostname when the topology knows the id.
    pub(crate) fn unknown_device(&self, dev: DeviceId) -> EmulationError {
        EmulationError::UnknownDevice(if (dev.0 as usize) < self.topo.device_count() {
            self.topo.device(dev).name.clone()
        } else {
            format!("device#{}", dev.0)
        })
    }

    /// Checks that `dev` is reachable for a control/monitor call:
    /// emulated, on a live VM, and not mid-recovery.
    pub(crate) fn guard(&self, dev: DeviceId) -> Result<(), EmulationError> {
        let Some(sb) = self.sandboxes.get(&dev) else {
            return Err(self.unknown_device(dev));
        };
        if self.vm_down.get(sb.vm).copied().unwrap_or(false) {
            return Err(EmulationError::VmDown(sb.vm));
        }
        if let Some(&until) = self.recovering_until.get(&dev) {
            if until > self.now() {
                return Err(EmulationError::DeviceRecovering(
                    self.topo.device(dev).name.clone(),
                ));
            }
        }
        Ok(())
    }

    /// Appends to the recovery journal, and records a `recovery` span per
    /// completion. Every fault and recovery step lands here; the run
    /// report reads its fault counters and recovery-latency histogram
    /// from the journal itself.
    pub(crate) fn journal_event(&mut self, at: SimTime, kind: JournalKind) {
        if let JournalKind::RecoveryComplete { latency, .. } = &kind {
            let rec = &mut *self.sim.engine.world.recorder;
            rec.span("recovery", None, at - *latency, at);
        }
        self.journal.record(at, kind);
    }

    /// Runs until route quiescence (post-change convergence).
    ///
    /// # Errors
    ///
    /// [`EmulationError::NotConverged`] if quiescence is not reached
    /// before `MockupOptions::deadline` elapses.
    pub fn settle(&mut self) -> Result<SimTime, EmulationError> {
        let start = self.now();
        let deadline = start + self.options.deadline;
        let t_settle = self.options.profiling.then(Instant::now);
        let settled = self
            .sim
            .run_until_quiet(self.options.quiet, deadline)
            .ok_or(EmulationError::NotConverged)?;
        let rec = &mut *self.sim.engine.world.recorder;
        if let Some(t0) = t_settle {
            rec.profile_add(profile_keys::SETTLE, t0.elapsed().as_nanos() as u64);
        }
        rec.span("settle", None, start, settled);
        Ok(settled)
    }

    /// Advances virtual time by `dur`, running every event due in the
    /// window — including health-plane probe rounds, which `settle`
    /// would skip on an already-quiet network (probe events are
    /// non-causal, so quiescence detection stops before them).
    ///
    /// This is the "watch the network for a while" primitive: inject a
    /// gray failure, `advance` a few probe periods, then read
    /// [`Self::incidents`].
    pub fn advance(&mut self, dur: SimDuration) {
        let until = self.now() + dur;
        self.sim.run_until(until);
    }

    /// Silently kills (or restores) a device's dataplane forwarding
    /// while its control plane keeps running — the canonical gray
    /// failure. BGP sessions stay up and the FIB keeps converging;
    /// only health-plane probes observe the difference. Also available
    /// as [`crate::faults::FaultKind::SilentBlackhole`] in a fault
    /// plan.
    ///
    /// # Errors
    ///
    /// [`EmulationError::UnknownDevice`] if `dev` is not emulated.
    pub fn set_forwarding(&mut self, dev: DeviceId, enabled: bool) -> Result<(), EmulationError> {
        if !self.sandboxes.contains_key(&dev) {
            return Err(self.unknown_device(dev));
        }
        self.sim.set_forwarding(dev, enabled);
        Ok(())
    }

    /// The cloud fleet. It lives in the work model that charges it, so a
    /// fork's fleet is a copy: work the child queues never reaches the
    /// parent.
    #[must_use]
    pub fn cloud(&self) -> &Cloud {
        &VmWorkModel::of_ref(&self.sim).cloud
    }

    /// Mutable access to the cloud fleet.
    pub(crate) fn cloud_mut(&mut self) -> &mut Cloud {
        &mut VmWorkModel::of(&mut self.sim).cloud
    }

    /// When the last of the fleet's CPU queues drains, or `floor` if that
    /// is later.
    pub(crate) fn fleet_drained_at(&self, floor: SimTime) -> SimTime {
        let cloud = self.cloud();
        self.vm_ids
            .iter()
            .map(|&id| cloud.vm(id).cpu.drained_at())
            .fold(floor, SimTime::max)
    }

    /// Forks the running emulation: the substrate behind
    /// [`Emulation::fork`](crate::session). The fork is a clone, so every
    /// field is copied or shared by its own `Clone`: device OSes behind
    /// their `Arc` until either side writes to one, the engine's position
    /// exactly, the cloud fleet with the work model, the recorder with its
    /// history, and `prep` and `topo` by `Arc`.
    pub(crate) fn fork_emulation(&self) -> Emulation {
        let t_fork = self.options.profiling.then(Instant::now);
        let mut child = self.clone();
        if let Some(t0) = t_fork {
            child
                .sim
                .engine
                .world
                .recorder
                .profile_add(profile_keys::FORK, t0.elapsed().as_nanos() as u64);
        }
        child
    }
}
