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
//! The returned [`Emulation`] exposes the Table 2 control/monitor surface:
//! `Reload` (two-layer vs strawman, §8.3), `Connect`/`Disconnect`,
//! `InjectPackets`/`PullPackets` telemetry, `PullStates`/`PullConfig`,
//! VM failure injection and health-monitor recovery.

use crate::explain::RouteExplanation;
use crate::faults::{FaultPlan, HealthPolicy};
use crate::metrics::{JournalEvent, JournalKind, MockupMetrics, RecoveryJournal};
use crate::plan::sandbox_kind;
use crate::prepare::PrepareOutput;
use bytes::Bytes;
use crystalnet_config::DeviceConfig;
use crystalnet_dataplane::{
    FibEntry,
    ForwardDecision,
    Ipv4Packet,
    NextHop,
    Signature,
    TraceEvent,
    TraceStore, //
};
use crystalnet_net::{partition_grouped, DeviceId, Ipv4Addr, Ipv4Prefix, LinkId, Topology};
use crystalnet_routing::harness::{WorkKind, WorkModel};
use crystalnet_routing::{
    BgpRouterOs, ControlPlaneSim, DeviceOs, MgmtCommand, MgmtResponse, ProbeConfig, TrafficConfig,
    VendorProfile,
};
use crystalnet_sim::{EventId, SimDuration, SimRng, SimTime};
use crystalnet_telemetry::profile::keys as profile_keys;
use crystalnet_telemetry::{
    trace_chrome_json, trace_jsonl, CowStats, DeviceMem, DeviceMemTotals, FieldValue, InternerMem,
    MemRecorder, MemorySection, QueueMem, Recorder, RunReport, SpanRecord, TraceRecord,
};
use crystalnet_vnet::{
    BridgeImpl,
    Cloud,
    CloudParams,
    ContainerEngine,
    ContainerId,
    ContainerKind,
    LinkSpan,
    ManagementOverlay,
    VirtualLink,
    VmId,
    VniAllocator, //
};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A typed failure from the [`Emulation`] control/monitor surface.
///
/// The Table 2 calls used to answer with bare `Option`s, which collapsed
/// "no such device" and "device mid-recovery" into one indistinguishable
/// `None`. Each variant now names its cause, so callers (validation
/// loops, retry harnesses) can react differently to transient and
/// permanent failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmulationError {
    /// The name/id does not resolve to an emulated device.
    UnknownDevice(String),
    /// The VM index is outside the provisioned fleet.
    UnknownVm(usize),
    /// The production link id is not part of this emulation.
    UnknownLink(u32),
    /// The device exists but is mid-recovery (reload or fault handling);
    /// retry after the next `settle`.
    DeviceRecovering(String),
    /// The device's hosting VM is dead (quarantined without recovery).
    VmDown(usize),
    /// Route convergence did not complete before the deadline.
    NotConverged,
    /// No packet trace recorded under this telemetry signature.
    UnknownSignature(u16),
    /// The device resolved but did not answer the management command
    /// (powered off or shut down).
    DeviceUnresponsive(String),
    /// The device holds no FIB entry for the asked prefix, so there is
    /// nothing to explain.
    NoRoute {
        /// Hostname of the queried device.
        device: String,
        /// The prefix that has no installed route.
        prefix: Ipv4Prefix,
    },
    /// A [`MockupOptions`] knob was given a value that cannot work
    /// (zero probe period, zero trace capacity). Raised eagerly by
    /// [`MockupOptionsBuilder::try_build`] so misconfiguration fails at
    /// build time instead of silently misbehaving mid-run.
    InvalidOption(String),
}

impl std::fmt::Display for EmulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmulationError::UnknownDevice(name) => write!(f, "unknown device {name:?}"),
            EmulationError::UnknownVm(vm) => write!(f, "VM index {vm} out of range"),
            EmulationError::UnknownLink(lid) => write!(f, "link #{lid} is not emulated"),
            EmulationError::DeviceRecovering(name) => {
                write!(f, "device {name:?} is recovering; retry after settle")
            }
            EmulationError::VmDown(vm) => write!(f, "VM {vm} is down"),
            EmulationError::NotConverged => write!(f, "did not converge before the deadline"),
            EmulationError::UnknownSignature(sig) => {
                write!(f, "no trace under signature {sig}")
            }
            EmulationError::DeviceUnresponsive(name) => {
                write!(f, "device {name:?} did not respond")
            }
            EmulationError::NoRoute { device, prefix } => {
                write!(f, "device {device:?} has no route to {prefix}")
            }
            EmulationError::InvalidOption(what) => {
                write!(f, "invalid mockup option: {what}")
            }
        }
    }
}

impl std::error::Error for EmulationError {}

/// Options controlling a Mockup.
///
/// Construct with [`MockupOptions::builder`]; `Default` gives the paper's
/// baseline. Direct struct-literal construction still compiles for
/// backward compatibility but is deprecated in favour of the builder —
/// new options (fault plans, health policy) will keep appearing and the
/// builder insulates call sites from them.
#[derive(Clone)]
pub struct MockupOptions {
    /// Run seed (boot jitter, provisioning jitter).
    pub seed: u64,
    /// Bridge implementation for virtual links (§6.2 ablation).
    pub bridge: BridgeImpl,
    /// Route quiescence window for convergence detection.
    pub quiet: SimDuration,
    /// Convergence deadline.
    pub deadline: SimDuration,
    /// Per-device firmware profile overrides (dev builds, buggy images).
    pub profile_overrides: HashMap<DeviceId, VendorProfile>,
    /// Worker shards for the convergence runs (`1` = serial). Any value
    /// produces bit-identical results: the partition is VM-aligned so a
    /// VM's CPU server is only ever driven by one worker thread, and all
    /// stochastic work costs derive from per-device seeds rather than a
    /// shared sequential stream.
    pub workers: usize,
    /// Faults to inject once the mockup is route-ready (offsets are
    /// relative to that instant). Executed automatically by [`mockup`];
    /// empty by default.
    pub fault_plan: FaultPlan,
    /// Health-monitor policy: heartbeat interval, miss threshold, and the
    /// bounded reboot-retry backoff.
    pub health: HealthPolicy,
    /// Continuous health plane: a deterministic probe mesh running in
    /// virtual time with gray-failure watchdogs and an incident
    /// timeline (see [`crate::health`]). `None` (the default) keeps
    /// every probe code path dormant — runs are byte-identical to a
    /// build without the feature.
    pub health_probes: Option<ProbeConfig>,
    /// Deterministic traffic plane: seeded flow generation over the
    /// converged dataplane with per-link utilisation gauges and
    /// congestion watchdogs (see [`crate::traffic`]). `None` (the
    /// default) keeps every traffic code path dormant — runs are
    /// byte-identical to a build without the feature.
    pub traffic: Option<TrafficConfig>,
    /// Whether to collect the run report (spans, counters, journal) —
    /// `pull_report()` returns an empty report when off. Recording is
    /// deterministic and does not perturb the run; disable it only to
    /// shave the last few percent off large batch sweeps.
    pub telemetry: bool,
    /// Maximum causal-trace records retained (a ring buffer keeping the
    /// newest); drops are counted in the run report under
    /// `telemetry.trace_dropped`. Must be nonzero (enforced by
    /// [`MockupOptionsBuilder::try_build`]); to run without telemetry
    /// at all, clear [`MockupOptions::telemetry`] instead.
    pub trace_capacity: usize,
    /// Whether to collect the wall-clock run profile: hierarchical
    /// span timings, the parallel executor's grant timeline and
    /// critical-path `scaling_diagnosis`, and memory accounting —
    /// surfaced through `RunReport::to_json_full()`. Off by default:
    /// wall timing is nondeterministic and the canonical report must
    /// stay byte-stable. Implies `telemetry`.
    pub profiling: bool,
}

impl Default for MockupOptions {
    fn default() -> Self {
        MockupOptions {
            seed: 0,
            bridge: BridgeImpl::LinuxBridge,
            quiet: SimDuration::from_secs(45),
            deadline: SimDuration::from_mins(180),
            profile_overrides: HashMap::new(),
            workers: 1,
            fault_plan: FaultPlan::default(),
            health: HealthPolicy::default(),
            health_probes: None,
            traffic: None,
            telemetry: true,
            trace_capacity: 65_536,
            profiling: false,
        }
    }
}

impl MockupOptions {
    /// Starts a builder from the defaults.
    ///
    /// # Examples
    ///
    /// ```
    /// use crystalnet::prelude::*;
    ///
    /// let opts = MockupOptions::builder()
    ///     .seed(7)
    ///     .workers(4)
    ///     .quiet(SimDuration::from_secs(30))
    ///     .build();
    /// assert_eq!(opts.seed, 7);
    /// assert_eq!(opts.workers, 4);
    /// ```
    #[must_use]
    pub fn builder() -> MockupOptionsBuilder {
        MockupOptionsBuilder {
            options: MockupOptions::default(),
        }
    }
}

/// Builder for [`MockupOptions`] — the supported construction path.
#[derive(Clone, Default)]
pub struct MockupOptionsBuilder {
    options: MockupOptions,
}

impl MockupOptionsBuilder {
    /// Run seed (boot jitter, provisioning jitter).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    /// Worker shards for convergence runs (`1` = serial).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.options.workers = workers;
        self
    }

    /// Bridge implementation for virtual links.
    #[must_use]
    pub fn bridge(mut self, bridge: BridgeImpl) -> Self {
        self.options.bridge = bridge;
        self
    }

    /// Route quiescence window for convergence detection.
    #[must_use]
    pub fn quiet(mut self, quiet: SimDuration) -> Self {
        self.options.quiet = quiet;
        self
    }

    /// Convergence deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.options.deadline = deadline;
        self
    }

    /// Overrides one device's firmware profile (dev builds, buggy
    /// images). May be called repeatedly.
    #[must_use]
    pub fn profile_override(mut self, dev: DeviceId, profile: VendorProfile) -> Self {
        self.options.profile_overrides.insert(dev, profile);
        self
    }

    /// Faults to inject once route-ready (offsets relative to that
    /// instant).
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.options.fault_plan = plan;
        self
    }

    /// Health-monitor heartbeat interval. Must be nonzero —
    /// [`Self::try_build`] rejects zero with
    /// [`EmulationError::InvalidOption`].
    #[must_use]
    pub fn heartbeat(mut self, interval: SimDuration) -> Self {
        self.options.health.heartbeat = interval;
        self
    }

    /// Full health-monitor policy (heartbeat, miss threshold, retry).
    #[must_use]
    pub fn health_policy(mut self, health: HealthPolicy) -> Self {
        self.options.health = health;
        self
    }

    /// Turns the continuous health plane on with `period` between probe
    /// rounds and every other [`ProbeConfig`] knob at its default. Use
    /// [`Self::health_config`] for full control. The period must be
    /// nonzero — [`Self::try_build`] rejects zero with
    /// [`EmulationError::InvalidOption`].
    #[must_use]
    pub fn health(mut self, period: SimDuration) -> Self {
        self.options.health_probes = Some(ProbeConfig::with_period(period));
        self
    }

    /// Turns the continuous health plane on with a full [`ProbeConfig`]
    /// (sampling width, SLO window, churn threshold, probe seed).
    #[must_use]
    pub fn health_config(mut self, cfg: ProbeConfig) -> Self {
        self.options.health_probes = Some(cfg);
        self
    }

    /// Turns the traffic plane on with `period` between flow-generation
    /// rounds and every other [`TrafficConfig`] knob at its default. Use
    /// [`Self::traffic_config`] for full control. The period must be
    /// nonzero — [`Self::try_build`] rejects zero with
    /// [`EmulationError::InvalidOption`].
    #[must_use]
    pub fn traffic(mut self, period: SimDuration) -> Self {
        self.options.traffic = Some(TrafficConfig::with_period(period));
        self
    }

    /// Turns the traffic plane on with a full [`TrafficConfig`] (flows
    /// per round, request/response sizes, link capacity, congestion
    /// thresholds, traffic seed).
    #[must_use]
    pub fn traffic_config(mut self, cfg: TrafficConfig) -> Self {
        self.options.traffic = Some(cfg);
        self
    }

    /// Whether to collect the run report (on by default).
    #[must_use]
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.options.telemetry = telemetry;
        self
    }

    /// Caps retained causal-trace records. Must be nonzero —
    /// [`Self::try_build`] rejects `0` with
    /// [`EmulationError::InvalidOption`]; to run without any telemetry
    /// use [`Self::telemetry`]`(false)` instead.
    #[must_use]
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.options.trace_capacity = capacity;
        self
    }

    /// Whether to collect the wall-clock run profile (off by default;
    /// see [`MockupOptions::profiling`]).
    #[must_use]
    pub fn profiling(mut self, profiling: bool) -> Self {
        self.options.profiling = profiling;
        self
    }

    /// Finishes the build, validating every knob eagerly.
    ///
    /// # Errors
    ///
    /// Returns [`EmulationError::InvalidOption`] when a knob holds a
    /// value that cannot work: a zero health-probe period (the probe
    /// tick would never advance virtual time) or a zero trace capacity
    /// (telemetry on but nowhere to put trace records).
    pub fn try_build(self) -> Result<MockupOptions, EmulationError> {
        // What every packet-walk plane needs: a period that advances
        // virtual time and a TTL a walk can spend.
        let walk_knobs = |what: &str, period: SimDuration, ttl: u8| {
            let bad = if period == SimDuration::ZERO {
                "period"
            } else if ttl == 0 {
                "ttl"
            } else {
                return Ok(());
            };
            Err(EmulationError::InvalidOption(format!(
                "{what} {bad} must be nonzero"
            )))
        };
        if let Some(cfg) = &self.options.health_probes {
            walk_knobs("health probe", cfg.period, cfg.ttl)?;
        }
        if let Some(cfg) = &self.options.traffic {
            walk_knobs("traffic flow", cfg.period, cfg.ttl)?;
            if cfg.flows_per_round == 0 {
                return Err(EmulationError::InvalidOption(
                    "traffic flows_per_round must be nonzero".to_string(),
                ));
            }
            if cfg.link_capacity_bps == 0 {
                return Err(EmulationError::InvalidOption(
                    "traffic link_capacity_bps must be nonzero".to_string(),
                ));
            }
        }
        if self.options.trace_capacity == 0 {
            return Err(EmulationError::InvalidOption(
                "trace_capacity must be nonzero; disable telemetry instead".to_string(),
            ));
        }
        // A VM or speaker crash builds a `HeartbeatSchedule` from this
        // interval after the devices are already powered off; a zero
        // interval would panic there, mid-fault.
        if self.options.health.heartbeat == SimDuration::ZERO {
            return Err(EmulationError::InvalidOption(
                "health heartbeat must be nonzero".to_string(),
            ));
        }
        Ok(self.options)
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics on an invalid knob combination — see [`Self::try_build`]
    /// for the fallible variant with a typed error.
    #[must_use]
    pub fn build(self) -> MockupOptions {
        self.try_build().expect("invalid mockup options")
    }
}

/// The work model coupling device activity to VM CPU contention.
///
/// Every route operation, firmware boot and frame encap queues on the
/// hosting VM's 4 cores — so denser packing (fewer VMs) slows convergence
/// and raises utilization, reproducing the Figure 8/9 relationships.
#[derive(Clone)]
pub struct VmWorkModel {
    cloud: Arc<Mutex<Cloud>>,
    device_vm: HashMap<DeviceId, VmId>,
    /// Per-device (boot CPU, firmware boot latency, CPU per route op).
    device_cost: HashMap<DeviceId, (SimDuration, SimDuration, SimDuration)>,
    /// Route processing inside one firmware image is single-threaded —
    /// a device's work serializes behind itself before competing for the
    /// VM's cores. This is what makes route-ready scale with fabric
    /// fan-in (the paper's L-DC bottleneck: "the major bottleneck is the
    /// convergence speed of routing algorithms", §8.2).
    device_busy: HashMap<DeviceId, SimTime>,
    link_span: HashMap<LinkId, LinkSpan>,
    /// Seed for boot-latency jitter. Jitter is derived from
    /// `(seed, device, boot ordinal)` rather than drawn from a shared
    /// sequential stream, so event interleaving — and therefore parallel
    /// execution — cannot change any device's boot time.
    jitter_seed: u64,
    /// Per-device boot ordinal; a reboot draws fresh jitter.
    boot_seq: HashMap<DeviceId, u64>,
}

impl VmWorkModel {
    /// ±25 % boot-latency jitter, deterministic per (device, boot ordinal).
    fn boot_jitter(&mut self, dev: DeviceId, base: SimDuration) -> SimDuration {
        let seq = self.boot_seq.entry(dev).or_insert(0);
        *seq += 1;
        // splitmix64 finalizer over the (seed, device, ordinal) triple.
        let mut z = self
            .jitter_seed
            .wrapping_add(u64::from(dev.0).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(seq.wrapping_mul(0xd1b5_4a32_d192_ed03));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        base.mul_f64(0.75 + 0.5 * unit)
    }

    /// Re-homes a device onto another VM (quarantine re-placement): its
    /// future boot/route work queues on the spare's CPU server.
    pub(crate) fn rehome_device(&mut self, dev: DeviceId, vm: VmId) {
        self.device_vm.insert(dev, vm);
    }

    /// Updates a link's span after re-placement changed which VMs host
    /// its endpoints (intra-VM veth ↔ inter-VM VXLAN).
    pub(crate) fn set_link_span(&mut self, link: LinkId, span: LinkSpan) {
        self.link_span.insert(link, span);
    }

    /// Folds a shard replica's per-device mutations back after a parallel
    /// join. The cloud is shared by `Arc`, so only the device-local
    /// tables need merging.
    fn absorb(&mut self, shard: &VmWorkModel, owned: &[DeviceId]) {
        for &dev in owned {
            if let Some(&t) = shard.device_busy.get(&dev) {
                self.device_busy.insert(dev, t);
            }
            if let Some(&s) = shard.boot_seq.get(&dev) {
                self.boot_seq.insert(dev, s);
            }
        }
    }
}

impl WorkModel for VmWorkModel {
    fn completion(&mut self, dev: DeviceId, kind: WorkKind, now: SimTime) -> SimTime {
        let Some(&vm) = self.device_vm.get(&dev) else {
            return now;
        };
        let (boot_cpu, boot_latency, per_op) = self.device_cost[&dev];
        let jitter = match kind {
            WorkKind::Boot => self.boot_jitter(dev, boot_latency),
            WorkKind::RouteOps(_) => SimDuration::ZERO,
        };
        let mut cloud = self.cloud.lock().expect("cloud lock poisoned");
        let start = now.max(self.device_busy.get(&dev).copied().unwrap_or(SimTime::ZERO));
        let end = match kind {
            WorkKind::Boot => cloud.vm_mut(vm).cpu.submit(start, boot_cpu) + jitter,
            WorkKind::RouteOps(n) => cloud.vm_mut(vm).cpu.submit(start, per_op * (n as u64)),
        };
        self.device_busy.insert(dev, end);
        end
    }

    fn link_delay(&mut self, link: LinkId, now: SimTime) -> SimDuration {
        let span = self
            .link_span
            .get(&link)
            .copied()
            .unwrap_or(LinkSpan::IntraVm);
        // A per-link-constant jitter de-phases the thousands of identical
        // links without breaking a link's FIFO ordering (reordering a
        // link would let an Update overtake its session's Open, which no
        // real Ethernet link does).
        let _ = now;
        let jitter = u64::from(link.0).wrapping_mul(0x9e37_79b9) % 2_000;
        span.latency() + SimDuration::from_nanos(jitter)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

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

/// A running emulation.
pub struct Emulation {
    /// The production topology being emulated (the prepare artifact's
    /// copy, shared).
    pub topo: Arc<Topology>,
    /// The control-plane simulation (devices, links, virtual time).
    pub sim: ControlPlaneSim,
    /// The cloud fleet.
    pub cloud: Arc<Mutex<Cloud>>,
    /// Provisioned VM handles, indexed like the plan.
    pub vm_ids: Vec<VmId>,
    /// Per-VM container engines.
    pub engines: Vec<ContainerEngine>,
    /// Per-device sandbox wiring.
    pub sandboxes: HashMap<DeviceId, Sandbox>,
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
    pub(crate) recovering_until: HashMap<DeviceId, SimTime>,
    /// Speaker incarnation epochs; bumped on every speaker restart so the
    /// fresh session token forces peers to flush and resync.
    pub(crate) speaker_epochs: HashMap<DeviceId, u64>,
    /// VNI allocator, retained so quarantine re-placement can provision
    /// replacement VXLAN tunnels without clashing with bring-up VNIs.
    pub(crate) vnis: VniAllocator,
    pub(crate) options: MockupOptions,
    /// Running configurations applied after `Prepare` (via
    /// [`Emulation::reload`] or `apply_change`); consulted before
    /// `prep.configs` so `pull_config` and fault recovery always see the
    /// *effective* config, not the original snapshot.
    pub(crate) config_overrides: HashMap<DeviceId, DeviceConfig>,
    /// Speaker scripts swapped in by `apply_change`; fault recovery
    /// rebuilds a swapped speaker from these, not the prepared plan.
    pub(crate) speaker_overrides: HashMap<DeviceId, Vec<(u32, crystalnet_routing::SpeakerScript)>>,
    /// Memoized boundary classification, patched incrementally on device
    /// removal instead of re-running Algorithm 1.
    pub(crate) classification: crystalnet_boundary::Classification,
    /// The *current* emulated set — `prep.emulated` minus devices removed
    /// by `apply_change`.
    pub(crate) emulated_now: BTreeSet<DeviceId>,
    /// Change applications in virtual-time order, kept for incident
    /// correlation (`(applied_at, summary)` per `apply_change`).
    pub(crate) change_log: Vec<(SimTime, String)>,
    next_signature: u16,
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
    let cloud = Arc::new(Mutex::new(cloud));

    // ------------------------------------------------------------------
    // Phase 1: PhyNet containers, interfaces, links, management overlay.
    // ------------------------------------------------------------------
    let mut engines: Vec<ContainerEngine> = (0..plan.vms.len())
        .map(|_| ContainerEngine::new())
        .collect();
    let mut sandboxes = HashMap::new();
    let mut mgmt = ManagementOverlay::new();
    let mut rng = SimRng::for_component(options.seed, "mockup");

    {
        let mut cloud = cloud.lock().expect("cloud lock poisoned");
        for (vm_idx, planned) in plan.vms.iter().enumerate() {
            mgmt.attach_vm(vm_ids[vm_idx]);
            for &dev in planned.devices.iter().chain(&planned.speakers) {
                let device = topo.device(dev);
                let engine = &mut engines[vm_idx];
                let phynet = engine.create(ContainerKind::PhyNet, None);
                let kind = if planned.speakers.contains(&dev) {
                    ContainerKind::Speaker
                } else {
                    sandbox_kind(device.vendor)
                };
                let sandbox = engine.create(kind, Some(phynet));
                engine.add_ifaces(phynet, device.ifaces.len() as u32);
                engine.start(phynet);
                let vm = &mut cloud.vm_mut(vm_ids[vm_idx]);
                // PhyNet start + per-interface veth/bridge setup.
                vm.cpu
                    .submit(SimTime::ZERO, ContainerKind::PhyNet.start_cpu());
                for _ in 0..device.ifaces.len() {
                    vm.cpu.submit(SimTime::ZERO, options.bridge.setup_cpu());
                }
                vm.ram_used_mb += kind.ram_mb() + ContainerKind::PhyNet.ram_mb();
                mgmt.register_device(vm_ids[vm_idx], &device.name, device.mgmt_addr)
                    .expect("unique production hostnames and mgmt IPs");
                sandboxes.insert(
                    dev,
                    Sandbox {
                        vm: vm_idx,
                        phynet,
                        device: sandbox,
                    },
                );
            }
        }
    }

    // Virtual links between placed sandboxes (VXLAN for inter-VM spans).
    let mut vnis = VniAllocator::new();
    let mut vlinks = Vec::new();
    let mut link_span = HashMap::new();
    {
        let mut cloud = cloud.lock().expect("cloud lock poisoned");
        for (lid, link) in topo.links() {
            let (Some(sa), Some(sb)) =
                (sandboxes.get(&link.a.device), sandboxes.get(&link.b.device))
            else {
                continue; // both ends outside the emulation
            };
            let vl = VirtualLink::provision(lid, vm_ids[sa.vm], vm_ids[sb.vm], false, &mut vnis);
            link_span.insert(lid, vl.span);
            // Tunnel setup costs CPU on both hosting VMs.
            if vl.span != LinkSpan::IntraVm {
                cloud
                    .vm_mut(vm_ids[sa.vm])
                    .cpu
                    .submit(SimTime::ZERO, options.bridge.setup_cpu());
                cloud
                    .vm_mut(vm_ids[sb.vm])
                    .cpu
                    .submit(SimTime::ZERO, options.bridge.setup_cpu());
            }
            vlinks.push(vl);
        }
    }

    let network_ready_at = {
        let cloud = cloud.lock().expect("cloud lock poisoned");
        vm_ids
            .iter()
            .map(|&id| cloud.vm(id).cpu.drained_at())
            .max()
            .unwrap_or(SimTime::ZERO)
            // Orchestrator-side batching / verification overhead.
            + SimDuration::from_secs(5)
    };

    // ------------------------------------------------------------------
    // Phase 2: boot firmware, converge routes.
    // ------------------------------------------------------------------
    let mut device_vm = HashMap::new();
    let mut device_cost = HashMap::new();
    for (&dev, sb) in &sandboxes {
        device_vm.insert(dev, vm_ids[sb.vm]);
    }

    let work = VmWorkModel {
        cloud: cloud.clone(),
        device_vm,
        device_cost: HashMap::new(), // filled below
        device_busy: HashMap::new(),
        link_span,
        jitter_seed: SimRng::for_component(options.seed, "work").below(u64::MAX),
        boot_seq: HashMap::new(),
    };
    let mut sim = ControlPlaneSim::new(&topo, Box::new(work));
    if options.telemetry || options.profiling {
        let mut rec = MemRecorder::with_trace_capacity(options.trace_capacity);
        if options.profiling {
            rec = rec.with_profiling();
        }
        sim.engine.world.recorder = Box::new(rec);
        sim.sync_tracing();
    }

    // Device firmwares.
    for (dev, cfg) in &prep.configs {
        let profile = options
            .profile_overrides
            .get(dev)
            .copied()
            .unwrap_or_else(|| VendorProfile::for_vendor(topo.device(*dev).vendor));
        let kind_cpu = sandbox_kind(topo.device(*dev).vendor).start_cpu();
        device_cost.insert(
            *dev,
            (
                kind_cpu + profile.cpu_boot,
                rng.jitter(profile.boot_time, 0.2),
                profile.cpu_per_route_op,
            ),
        );
        let os = BgpRouterOs::new(profile, cfg.clone(), topo.device(*dev).loopback);
        sim.add_os(*dev, Box::new(os));
    }
    // Speakers.
    for (dev, _) in &prep.speaker_plan.scripts {
        if let Some(os) = prep.speaker_plan.build_os(&topo, *dev) {
            device_cost.insert(
                *dev,
                (
                    ContainerKind::Speaker.start_cpu(),
                    SimDuration::from_secs(3),
                    SimDuration::from_micros(5),
                ),
            );
            sim.add_os(*dev, Box::new(os));
        }
    }
    // Install the completed cost table into the live work model. The
    // world owns the box, so rebuild it in place.
    install_costs(&mut sim, device_cost);

    sim.boot_all(network_ready_at);

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
    if let Some(mut cfg) = options.health_probes.clone() {
        if cfg.seed == 0 {
            cfg.seed = options.seed;
        }
        let first_tick = network_ready_at + cfg.period;
        sim.enable_health(cfg, population.clone(), first_tick);
    }
    if let Some(mut cfg) = options.traffic.clone() {
        if cfg.seed == 0 {
            cfg.seed = options.seed;
        }
        let first_tick = network_ready_at + cfg.period;
        sim.enable_traffic(cfg, population, first_tick);
    }

    let t_converge = options.profiling.then(Instant::now);
    let route_ready_at = converge(
        &mut sim,
        &topo,
        &sandboxes,
        &options,
        network_ready_at + options.deadline,
    )
    .expect("emulation failed to converge before the deadline");
    if let Some(t0) = t_converge {
        sim.engine.world.recorder.profile_add(
            profile_keys::MOCKUP_CONVERGE,
            t0.elapsed().as_nanos() as u64,
        );
    }
    let route_ops = sim.engine.world.route_ops_total;

    // Phase spans + orchestrator events, emitted serially so their order
    // is identical whatever `workers` drove the convergence.
    if sim.engine.world.recorder.enabled() {
        let boot_end = MemRecorder::from_recorder(&*sim.engine.world.recorder)
            .and_then(|m| m.gauge("routing.last_boot_done_ns"))
            .map_or(network_ready_at, SimTime);
        let rec = &mut *sim.engine.world.recorder;
        rec.span("mockup", None, SimTime::ZERO, route_ready_at);
        rec.span("boot", None, network_ready_at, boot_end);
        rec.event(
            network_ready_at,
            "network_ready",
            vec![
                ("vms", FieldValue::U64(vm_ids.len() as u64)),
                ("vlinks", FieldValue::U64(vlinks.len() as u64)),
            ],
        );
        rec.event(
            route_ready_at,
            "route_ready",
            vec![("route_ops", FieldValue::U64(route_ops))],
        );
    }

    if let Some(t0) = t_mockup {
        sim.engine
            .world
            .recorder
            .profile_add(profile_keys::MOCKUP, t0.elapsed().as_nanos() as u64);
    }

    // Mark sandboxes running.
    for sb in sandboxes.values() {
        engines[sb.vm].start(sb.device);
    }

    let vm_count = vm_ids.len();
    let fault_plan = options.fault_plan.clone();
    let classification = prep.classification();
    let emulated_now = prep.emulated.clone();
    let mut emu = Emulation {
        topo,
        sim,
        cloud,
        vm_ids,
        engines,
        sandboxes,
        vlinks,
        mgmt,
        metrics: MockupMetrics::from_phases(network_ready_at, route_ready_at, route_ops),
        traces: TraceStore::new(),
        prep,
        journal: RecoveryJournal::default(),
        vm_down: vec![false; vm_count],
        recovering_until: HashMap::new(),
        speaker_epochs: HashMap::new(),
        vnis,
        options,
        config_overrides: HashMap::new(),
        speaker_overrides: HashMap::new(),
        classification,
        emulated_now,
        change_log: Vec::new(),
        next_signature: 1,
    };
    if !fault_plan.is_empty() {
        emu.run_fault_plan(&fault_plan)
            .expect("options.fault_plan failed to execute");
    }
    emu
}

/// Runs the sim to route quiescence — serially, or on the sharded
/// conservative executor when `options.workers > 1`.
///
/// The partition is VM-aligned (devices sharing a VM share a shard, so a
/// VM's CPU server is only ever driven by one worker thread), shard work
/// models are forked from the live [`VmWorkModel`] — they share the cloud
/// through its `Arc` — and per-device state is folded back after the
/// join. Combined with the executor's serial-equivalence protocol, the
/// result is bit-identical to a serial run.
pub(crate) fn converge(
    sim: &mut ControlPlaneSim,
    topo: &Topology,
    sandboxes: &HashMap<DeviceId, Sandbox>,
    options: &MockupOptions,
    deadline: SimTime,
) -> Option<SimTime> {
    let workers = options.workers.max(1);
    if workers == 1 {
        return sim.run_until_quiet(options.quiet, deadline);
    }
    // Devices sharing a VM must share a shard; unplaced devices float as
    // singleton groups.
    let n_vms = sandboxes.values().map(|sb| sb.vm + 1).max().unwrap_or(0);
    let mut next_free = n_vms as u32;
    let group_of: Vec<u32> = (0..topo.device_count() as u32)
        .map(|i| match sandboxes.get(&DeviceId(i)) {
            Some(sb) => sb.vm as u32,
            None => {
                let g = next_free;
                next_free += 1;
                g
            }
        })
        .collect();
    // The partition may produce fewer shards than requested workers on
    // small fleets (one shard per VM group at most).
    let part = partition_grouped(topo, workers, &group_of);

    let template = sim
        .engine
        .world
        .work_mut()
        .as_any_mut()
        .downcast_mut::<VmWorkModel>()
        .expect("mockup sims drive a VmWorkModel")
        .clone();
    let shard_work: Vec<Box<dyn WorkModel>> = (0..part.shard_count())
        .map(|_| Box::new(template.clone()) as Box<dyn WorkModel>)
        .collect();
    let (t, models) = sim.run_until_quiet_parallel(options.quiet, deadline, &part, shard_work);

    let main = sim
        .engine
        .world
        .work_mut()
        .as_any_mut()
        .downcast_mut::<VmWorkModel>()
        .expect("mockup sims drive a VmWorkModel");
    for (shard, mut model) in models.into_iter().enumerate() {
        if let Some(m) = model.as_any_mut().downcast_mut::<VmWorkModel>() {
            main.absorb(m, &part.shards[shard]);
        }
    }
    t
}

/// Stable label for a forwarding decision in exported trace records.
fn decision_label(d: ForwardDecision) -> &'static str {
    match d {
        ForwardDecision::Forward(_) => "forward",
        ForwardDecision::Deliver => "deliver",
        ForwardDecision::DropNoRoute => "drop-no-route",
        ForwardDecision::DropTtlExpired => "drop-ttl-expired",
        ForwardDecision::DropAcl => "drop-acl",
    }
}

/// Adds one device's RIB/FIB footprint to `totals` and returns it:
/// entry counts × struct-size estimates, the unit of the memory section
/// and of a fork's sharing statistics alike.
pub(crate) fn add_device_mem(
    totals: &mut DeviceMemTotals,
    dev: DeviceId,
    os: &dyn DeviceOs,
) -> DeviceMem {
    use std::mem::size_of;
    // A RIB entry holds a prefix plus an interned-attrs handle and
    // per-peer bookkeeping: a flat per-entry estimate.
    const RIB_ENTRY_BYTES: u64 = 48;
    let rib_entries = os.rib_size() as u64;
    let fib = os.fib();
    let prefixes = fib.len() as u64;
    let routes = fib.route_entry_count() as u64;
    let fib_bytes = prefixes * size_of::<(Ipv4Prefix, FibEntry)>() as u64
        + routes * size_of::<NextHop>() as u64;
    let rib_bytes = rib_entries * RIB_ENTRY_BYTES;
    totals.devices += 1;
    totals.rib_entries += rib_entries;
    totals.rib_bytes += rib_bytes;
    totals.fib_prefixes += prefixes;
    totals.fib_route_entries += routes;
    totals.fib_bytes += fib_bytes;
    DeviceMem {
        device: dev.0,
        rib_bytes,
        fib_bytes,
    }
}

/// Replaces the device-cost table inside the sim's boxed work model.
fn install_costs(
    sim: &mut ControlPlaneSim,
    costs: HashMap<DeviceId, (SimDuration, SimDuration, SimDuration)>,
) {
    if let Some(model) = sim
        .engine
        .world
        .work_mut()
        .as_any_mut()
        .downcast_mut::<VmWorkModel>()
    {
        model.device_cost = costs;
    }
}

impl Emulation {
    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.sim.engine.now()
    }

    /// Checks that `dev` is reachable for a control/monitor call:
    /// emulated, on a live VM, and not mid-recovery.
    pub(crate) fn guard(&self, dev: DeviceId) -> Result<(), EmulationError> {
        let Some(sb) = self.sandboxes.get(&dev) else {
            let name = if (dev.0 as usize) < self.topo.device_count() {
                self.topo.device(dev).name.clone()
            } else {
                format!("device#{}", dev.0)
            };
            return Err(EmulationError::UnknownDevice(name));
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

    /// Appends to the recovery journal, mirroring each entry into the
    /// telemetry recorder — fault counters, the recovery-latency
    /// histogram, and a `recovery` span per completion. Every fault and
    /// recovery step emits through here so the journal's typed query API
    /// and the run report can never drift apart.
    pub(crate) fn journal_event(&mut self, at: SimTime, kind: JournalKind) {
        let rec = &mut *self.sim.engine.world.recorder;
        if rec.enabled() {
            match &kind {
                JournalKind::FaultInjected { .. } => rec.counter_add("core.faults_injected", 1),
                JournalKind::HeartbeatMissed { .. } => rec.counter_add("core.heartbeat_misses", 1),
                JournalKind::VmDeclaredDead { .. } => rec.counter_add("core.vms_declared_dead", 1),
                JournalKind::RebootAttempt { .. } => rec.counter_add("core.reboot_attempts", 1),
                JournalKind::VmQuarantined { .. } => rec.counter_add("core.vms_quarantined", 1),
                JournalKind::SpeakerRestarted { .. } => {
                    rec.counter_add("core.speakers_restarted", 1);
                }
                JournalKind::LinkFlap { .. } => rec.counter_add("core.link_flaps", 1),
                JournalKind::RecoveryComplete { latency, .. } => {
                    rec.counter_add("core.recoveries", 1);
                    rec.histogram_record("core.recovery_latency_ns", latency.as_nanos() as f64);
                    rec.span("recovery", None, at - *latency, at);
                }
            }
        }
        self.journal.record(at, kind);
    }

    /// `PullReport`: the run's observability snapshot — phase and
    /// recovery spans, the merged metrics registry, orchestrator events,
    /// and the time-sorted journal. Canonical JSON
    /// ([`RunReport::to_json`]) is bit-identical across repetitions and
    /// across `workers` values for the same seed; the empty report is
    /// returned when the mockup was built with `telemetry(false)`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use crystalnet::prelude::*;
    /// # use crystalnet::PlanOptions;
    /// # use crystalnet_net::fixtures::fig7;
    /// # let f = fig7();
    /// # let prep = prepare(&f.topo, &[], BoundaryMode::WholeNetwork,
    /// #     SpeakerSource::OriginatedOnly, &PlanOptions::default());
    /// let emu = mockup(Arc::new(prep), MockupOptions::builder().build());
    ///
    /// let report = emu.pull_report();
    /// assert!(report.enabled);
    /// assert!(report.counters["routing.devices_booted"] > 0);
    /// let json = report.to_json(); // the canonical artifact CI validates
    /// # assert!(json.contains("\"spans\""));
    /// ```
    #[must_use]
    pub fn pull_report(&self) -> RunReport {
        let Some(mem) = MemRecorder::from_recorder(&*self.sim.engine.world.recorder) else {
            return RunReport::disabled();
        };
        let mut report = mem
            .report()
            .with_meta("seed", FieldValue::U64(self.options.seed))
            .with_meta("devices", FieldValue::U64(self.sandboxes.len() as u64))
            .with_meta("vms", FieldValue::U64(self.vm_ids.len() as u64))
            .with_meta("quiet", FieldValue::Dur(self.options.quiet))
            .with_meta("deadline", FieldValue::Dur(self.options.deadline))
            .with_meta("network_ready", FieldValue::Dur(self.metrics.network_ready))
            .with_meta("route_ready", FieldValue::Dur(self.metrics.route_ready));
        // Per-device convergence spans, derived from the last
        // route-activity gauge: boot start → final route installation.
        if let Some(per_dev) = mem.device_gauge("routing.convergence_ns") {
            let start = self.metrics.ready_at - self.metrics.route_ready;
            for (&dev, &end_ns) in per_dev {
                report.spans.push(SpanRecord {
                    name: "convergence".to_string(),
                    device: Some(dev),
                    start,
                    end: SimTime(end_ns),
                });
            }
        }
        report.journal = self
            .journal
            .sorted()
            .events
            .iter()
            .map(JournalEvent::to_event_record)
            .collect();
        // Execution-shape facts: never part of the canonical sections.
        report.diagnostics.insert(
            "sim.engine.events_executed".to_string(),
            self.sim.engine.events_executed(),
        );
        report.diagnostics.insert(
            "sim.engine.queue_high_water".to_string(),
            self.sim.engine.queue_high_water() as u64,
        );
        let (hits, misses) = crystalnet_routing::intern_stats();
        report
            .diagnostics
            .insert("routing.intern_hits".to_string(), hits);
        report
            .diagnostics
            .insert("routing.intern_misses".to_string(), misses);
        if mem.profiling_enabled() {
            report.memory = Some(self.memory_section(None));
        }
        report
    }

    /// Builds the memory-accounting section of a profiled report.
    ///
    /// Byte figures are entry counts multiplied by struct-size
    /// estimates, not allocator measurements — deterministic for a seed
    /// on a given platform, which is what a regression baseline needs.
    pub(crate) fn memory_section(&self, fork_cow: Option<CowStats>) -> MemorySection {
        // An interned attrs record amortizes an AS path and a hash-table
        // slot; a queued event is its envelope. Flat per-entry estimates.
        const ATTRS_BYTES: u64 = 96;
        const QUEUE_EVENT_BYTES: u64 = 128;

        let mut totals = DeviceMemTotals::default();
        let mut per_dev: Vec<DeviceMem> = self
            .sandboxes
            .keys()
            .filter_map(|&dev| Some(add_device_mem(&mut totals, dev, self.sim.os(dev)?)))
            .collect();
        per_dev.sort_by_key(|d| (std::cmp::Reverse(d.rib_bytes + d.fib_bytes), d.device));
        per_dev.truncate(8);

        let (hits, _misses) = crystalnet_routing::intern_stats();
        let entries = crystalnet_routing::PathAttrs::interned_count() as u64;
        let pending = self.sim.engine.events_pending() as u64;
        MemorySection {
            devices: totals,
            top_devices: per_dev,
            interner: InternerMem {
                entries,
                table_bytes: entries * ATTRS_BYTES,
                hits,
                hit_bytes_saved: hits * ATTRS_BYTES,
            },
            event_queue: QueueMem {
                pending_events: pending,
                residue_bytes: pending * QUEUE_EVENT_BYTES,
            },
            fork_cow,
        }
    }

    /// The live [`VmWorkModel`] inside the sim, if one is installed.
    pub(crate) fn work_model(&mut self) -> Option<&mut VmWorkModel> {
        self.sim
            .engine
            .world
            .work_mut()
            .as_any_mut()
            .downcast_mut::<VmWorkModel>()
    }

    /// Runs until route quiescence (post-change convergence), honouring
    /// `MockupOptions::workers`.
    ///
    /// # Errors
    ///
    /// [`EmulationError::NotConverged`] if quiescence is not reached
    /// before `MockupOptions::deadline` elapses.
    pub fn settle(&mut self) -> Result<SimTime, EmulationError> {
        let start = self.now();
        let deadline = start + self.options.deadline;
        let t_settle = self.options.profiling.then(Instant::now);
        let settled = converge(
            &mut self.sim,
            &self.topo,
            &self.sandboxes,
            &self.options,
            deadline,
        )
        .ok_or(EmulationError::NotConverged)?;
        let rec = &mut *self.sim.engine.world.recorder;
        if let Some(t0) = t_settle {
            rec.profile_add(profile_keys::SETTLE, t0.elapsed().as_nanos() as u64);
        }
        if rec.enabled() {
            rec.span("settle", None, start, settled);
        }
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

    /// The health plane's gauges as a canonical
    /// [`HealthReport`](crate::health::HealthReport) (see
    /// [`crate::health`]). When the health plane is off
    /// ([`MockupOptionsBuilder::health`] not called), returns
    /// [`HealthReport::disabled`](crate::health::HealthReport::disabled).
    #[must_use]
    pub fn pull_health(&self) -> crate::health::HealthReport {
        match self.sim.health() {
            Some(state) => {
                crate::health::HealthReport::from_state(state, |d| self.topo.device(d).name.clone())
            }
            None => crate::health::HealthReport::disabled(),
        }
    }

    /// The traffic plane's gauges as a canonical
    /// [`TrafficReport`](crate::traffic::TrafficReport) (see
    /// [`crate::traffic`]). When the traffic plane is off
    /// ([`MockupOptionsBuilder::traffic`] not called), returns
    /// [`TrafficReport::disabled`](crate::traffic::TrafficReport::disabled).
    #[must_use]
    pub fn pull_traffic(&self) -> crate::traffic::TrafficReport {
        match self.sim.traffic() {
            Some(state) => crate::traffic::TrafficReport::from_state(state, |d| {
                self.topo.device(d).name.clone()
            }),
            None => crate::traffic::TrafficReport::disabled(),
        }
    }

    /// The incident timeline with causes correlated: every watchdog
    /// firing (blackhole, forwarding loop, SLO breach, FIB-churn
    /// anomaly, and — when the traffic plane runs — link
    /// over-subscription, ECMP polarisation, flow SLO breach) in
    /// virtual-time order, each attributed to the nearest preceding
    /// fault, recovery action, or applied change within
    /// [`crate::health::CORRELATION_WINDOW`].
    #[must_use]
    pub fn incidents(&self) -> Vec<crate::health::CorrelatedIncident> {
        // Each plane keeps its log in timeline order, so the shared
        // timeline is a two-way merge by reference.
        let health = self.sim.health().map_or(&[][..], |h| &h.incidents);
        let traffic = self.sim.traffic().map_or(&[][..], |t| &t.incidents);
        let (mut health, mut traffic) = (health.iter().peekable(), traffic.iter().peekable());
        let merged = std::iter::from_fn(|| match (health.peek(), traffic.peek()) {
            (Some(h), Some(t)) if t.sort_key() < h.sort_key() => traffic.next(),
            (Some(_), _) => health.next(),
            (None, _) => traffic.next(),
        });
        crate::health::correlate(merged, &self.journal, &self.change_log, |d| {
            self.topo.device(d).name.clone()
        })
    }

    /// [`Self::incidents`] as JSONL — one canonical object per line,
    /// artifact-friendly.
    #[must_use]
    pub fn incidents_jsonl(&self) -> String {
        crate::health::incidents_jsonl(&self.incidents())
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
            return Err(EmulationError::UnknownDevice(format!("device #{}", dev.0)));
        }
        self.sim.set_forwarding(dev, enabled);
        Ok(())
    }

    /// `List`: all emulated devices with hostnames and liveness.
    #[must_use]
    pub fn list(&self) -> Vec<(DeviceId, String, bool)> {
        self.sandboxes
            .keys()
            .map(|&d| (d, self.topo.device(d).name.clone(), self.sim.is_up(d)))
            .collect()
    }

    /// `Login`: resolve a device by management DNS name and run a command
    /// over the management overlay.
    ///
    /// # Errors
    ///
    /// [`EmulationError::UnknownDevice`] if the name does not resolve,
    /// [`EmulationError::VmDown`] / [`EmulationError::DeviceRecovering`]
    /// if the device is unreachable mid-fault, and
    /// [`EmulationError::DeviceUnresponsive`] if it resolved but did not
    /// answer (powered off or shut down).
    pub fn login_and_run(
        &mut self,
        name: &str,
        cmd: MgmtCommand,
    ) -> Result<MgmtResponse, EmulationError> {
        let dev = self
            .mgmt
            .resolve(name)
            .and_then(|addr| self.mgmt.reverse(addr))
            .and_then(|host| self.topo.by_name(host))
            .ok_or_else(|| EmulationError::UnknownDevice(name.to_string()))?;
        self.guard(dev)?;
        self.sim
            .mgmt_sync(dev, cmd)
            .ok_or_else(|| EmulationError::DeviceUnresponsive(name.to_string()))
    }

    /// `PullStates`: forwarding/RIB summary for one device.
    ///
    /// # Errors
    ///
    /// [`EmulationError::UnknownDevice`], [`EmulationError::VmDown`], or
    /// [`EmulationError::DeviceRecovering`] when the device is absent or
    /// unreachable mid-fault.
    pub fn pull_states(&self, dev: DeviceId) -> Result<DeviceState, EmulationError> {
        self.guard(dev)?;
        let os = self
            .sim
            .os(dev)
            .ok_or_else(|| EmulationError::UnknownDevice(self.topo.device(dev).name.clone()))?;
        Ok(DeviceState {
            device: dev,
            hostname: os.hostname().to_string(),
            up: self.sim.is_up(dev),
            rib_size: os.rib_size(),
            fib_prefixes: os.fib().len(),
            fib_route_entries: os.fib().route_entry_count(),
        })
    }

    /// `PullConfig`: the running configuration text for rollback.
    ///
    /// # Errors
    ///
    /// [`EmulationError::UnknownDevice`] if no prepared configuration
    /// exists for `dev` (speakers, unemulated ids), plus the
    /// `guard` reachability errors.
    pub fn pull_config(&self, dev: DeviceId) -> Result<String, EmulationError> {
        self.guard(dev)?;
        self.effective_config(dev)
            .map(crystalnet_config::render)
            .ok_or_else(|| EmulationError::UnknownDevice(self.topo.device(dev).name.clone()))
    }

    /// The configuration the device is *currently* running: the last one
    /// applied by [`Self::reload`] / `apply_change`, falling back to the
    /// prepared snapshot. `None` for speakers and unemulated ids.
    pub(crate) fn effective_config(&self, dev: DeviceId) -> Option<&DeviceConfig> {
        self.config_overrides.get(&dev).or_else(|| {
            self.prep
                .configs
                .iter()
                .find(|(d, _)| *d == dev)
                .map(|(_, c)| c)
        })
    }

    /// `Disconnect`: takes a production link down in the emulation.
    pub fn disconnect(&mut self, lid: LinkId) {
        let ep = ControlPlaneSim::link_endpoints(&self.topo, lid);
        let at = self.now();
        self.sim.link_down(ep, at);
    }

    /// `Connect`: brings a production link back up.
    pub fn connect(&mut self, lid: LinkId) {
        let ep = ControlPlaneSim::link_endpoints(&self.topo, lid);
        let at = self.now();
        self.sim.link_up(ep, at);
    }

    /// `InjectPackets`: sends a probe with a fresh telemetry signature
    /// from `from`, captures per-hop traces, and returns the signature.
    pub fn inject_packet(&mut self, from: DeviceId, src: Ipv4Addr, dst: Ipv4Addr) -> Signature {
        let sig = Signature(self.next_signature);
        self.next_signature = self.next_signature.wrapping_add(1).max(1);
        let pkt = Ipv4Packet {
            src,
            dst,
            protocol: crystalnet_dataplane::ipproto::UDP,
            ttl: 64,
            identification: sig.0,
            payload: Bytes::new(),
        };
        let (path, outcome) = self.sim.trace_packet(from, &pkt);
        let now = self.now().as_nanos();
        for (hop, &dev) in path.iter().enumerate() {
            let decision = if hop + 1 == path.len() {
                outcome
            } else {
                // Mid-path devices forwarded; the exact hop is implied by
                // the next path element.
                ForwardDecision::Forward(crystalnet_dataplane::NextHop {
                    iface: 0,
                    via: Ipv4Addr(0),
                })
            };
            // Join the packet hop to the control plane: the digest of the
            // provenance chain behind the FIB entry this device used.
            let prov = self.sim.os(dev).and_then(|os| {
                let (prefix, _) = os.fib().lookup(dst)?;
                Some(os.route_detail(prefix)?.prov.digest())
            });
            self.traces.capture(
                &pkt,
                TraceEvent {
                    at_nanos: now + hop as u64 * 1_000,
                    device: dev,
                    ingress: None,
                    decision,
                    hop: hop as u32,
                    prov,
                },
            );
        }
        sig
    }

    /// `PullPackets`: the path a signature took and its fate.
    ///
    /// # Errors
    ///
    /// [`EmulationError::UnknownSignature`] if no trace was captured
    /// under `sig`.
    pub fn pull_packets(
        &self,
        sig: Signature,
    ) -> Result<(Vec<DeviceId>, ForwardDecision), EmulationError> {
        match self.traces.outcome(sig) {
            Some(outcome) => Ok((self.traces.path(sig), outcome)),
            None => Err(EmulationError::UnknownSignature(sig.0)),
        }
    }

    /// `ExplainRoute`: the full causal answer to "why does `device`
    /// forward `prefix` that way?" — origin announcement, per-hop
    /// propagation chain (with hostnames and event ids), and the
    /// best-path decision reason.
    ///
    /// # Errors
    ///
    /// [`EmulationError::UnknownDevice`] if the hostname does not
    /// resolve, the `guard` reachability errors, and
    /// [`EmulationError::NoRoute`] if the device holds no FIB entry for
    /// `prefix`.
    pub fn explain_route(
        &self,
        device: &str,
        prefix: Ipv4Prefix,
    ) -> Result<RouteExplanation, EmulationError> {
        let dev = self
            .topo
            .by_name(device)
            .ok_or_else(|| EmulationError::UnknownDevice(device.to_string()))?;
        self.guard(dev)?;
        let os = self
            .sim
            .os(dev)
            .ok_or_else(|| EmulationError::UnknownDevice(device.to_string()))?;
        let detail = os.route_detail(prefix).ok_or(EmulationError::NoRoute {
            device: device.to_string(),
            prefix,
        })?;
        Ok(RouteExplanation::from_detail(
            dev,
            os.hostname().to_string(),
            prefix,
            &detail,
            |router| self.hostname_of_loopback(router),
        ))
    }

    /// Resolves a router loopback back to its production hostname.
    fn hostname_of_loopback(&self, loopback: Ipv4Addr) -> Option<String> {
        (0..self.topo.device_count() as u32)
            .map(DeviceId)
            .find(|&d| self.topo.device(d).loopback == loopback)
            .map(|d| self.topo.device(d).name.clone())
    }

    /// `PullTrace`: the merged deterministic causal trace — control-plane
    /// records (boots, link transitions, frame deliveries, FIB mutations
    /// with provenance) from the ring-buffer sink, plus one `packet_hop`
    /// record per captured [`TraceEvent`], each carrying the provenance
    /// digest of the FIB entry that forwarded it. Sorted by the global
    /// rank, so the stream is byte-identical across `workers` values and
    /// repetitions for a fixed seed.
    #[must_use]
    pub fn pull_trace(&self) -> Vec<TraceRecord> {
        let mut recs: Vec<TraceRecord> =
            MemRecorder::from_recorder(&*self.sim.engine.world.recorder)
                .and_then(MemRecorder::trace_sink)
                .map(crystalnet_telemetry::TraceSink::records)
                .unwrap_or_default();
        for sig in self.traces.signatures() {
            for ev in self.traces.events(sig) {
                // Synthetic event id in a key range no scheduled event
                // uses (high bit set), so packet hops interleave with
                // control-plane records by time without colliding.
                let id = EventId {
                    time_ns: ev.at_nanos,
                    key: (1 << 63) | (u64::from(sig.0) << 16) | u64::from(ev.hop),
                };
                let mut fields = vec![
                    ("signature", FieldValue::U64(u64::from(sig.0))),
                    ("hop", FieldValue::U64(u64::from(ev.hop))),
                    (
                        "decision",
                        FieldValue::Str(decision_label(ev.decision).to_string()),
                    ),
                ];
                if let Some(p) = ev.prov {
                    fields.push(("prov", FieldValue::U64(p)));
                }
                recs.push(TraceRecord::new(
                    SimTime(ev.at_nanos),
                    id,
                    None,
                    "packet_hop",
                    Some(ev.device.0),
                    fields,
                ));
            }
        }
        recs.sort_by_key(TraceRecord::rank);
        recs
    }

    /// The merged trace as JSON Lines (one record per line).
    #[must_use]
    pub fn trace_jsonl(&self) -> String {
        trace_jsonl(&self.pull_trace())
    }

    /// The merged trace as a Chrome trace-event JSON document, loadable
    /// in Perfetto / `chrome://tracing`.
    #[must_use]
    pub fn trace_chrome_json(&self) -> String {
        trace_chrome_json(&self.pull_trace())
    }

    /// Runtime Lemma 5.1 audit
    /// ([`audit_provenance`](crystalnet_boundary::audit_provenance)) over
    /// every converged route: a boundary-crossing route must *originate*
    /// at a speaker (the legal single crossing) and must never pass
    /// *through* one mid-chain (a second crossing).
    ///
    /// # Errors
    ///
    /// The first offending route, in device-id then iteration order.
    pub fn audit_boundary(&self) -> Result<(), crystalnet_boundary::ProvenanceWitness> {
        let speakers: BTreeSet<Ipv4Addr> = self
            .prep
            .speaker_plan
            .scripts
            .iter()
            .map(|(d, _)| self.topo.device(*d).loopback)
            .collect();
        let mut devs: Vec<DeviceId> = self.sandboxes.keys().copied().collect();
        devs.sort_unstable_by_key(|d| d.0);
        for dev in devs {
            let Some(os) = self.sim.os(dev) else { continue };
            let rows = os.routes_with_detail();
            crystalnet_boundary::audit_provenance(
                rows.iter().map(|(p, detail)| (dev, *p, &*detail.prov)),
                &speakers,
            )?;
        }
        Ok(())
    }

    /// `Reload`: reboots one device with a new configuration.
    ///
    /// Two-layer mode (the CrystalNet design) keeps the PhyNet namespace:
    /// stop software, overwrite config, restart — ~3 s. Strawman mode
    /// (everything-together, the §8.3 ablation) additionally tears down
    /// and recreates every interface, link and tunnel.
    ///
    /// Returns the device downtime.
    pub fn reload(&mut self, dev: DeviceId, config: DeviceConfig, strawman: bool) -> SimDuration {
        let sb = self.sandboxes[&dev];
        let iface_count = self.topo.device(dev).ifaces.len() as u64;
        // Stop software (PhyNet survives in two-layer mode).
        self.engines[sb.vm].stop(sb.device);
        let mut downtime = SimDuration::from_millis(500) // stop
            + SimDuration::from_millis(500) // overwrite configuration
            + SimDuration::from_secs(2); // start container
        if strawman {
            // Tear down and recreate the namespace: veth pairs, bridges,
            // VXLAN tunnels and addressing for every interface.
            downtime += SimDuration::from_millis(400) * iface_count // recreate
                + SimDuration::from_secs(3); // namespace + container rebuild
        }
        self.engines[sb.vm].start(sb.device);
        let at = self.now() + downtime;
        self.recovering_until.insert(dev, at);
        self.config_overrides.insert(dev, config.clone());
        self.sim
            .mgmt(dev, MgmtCommand::ReplaceConfig(Box::new(config)), at);
        downtime
    }

    /// Kills every sandbox on VM `vm_idx` at `at`: the VM is marked dead,
    /// its devices power off and their neighbors see link-down. Returns
    /// the victims.
    pub(crate) fn crash_vm_devices(&mut self, vm_idx: usize, at: SimTime) -> Vec<DeviceId> {
        let vm_id = self.vm_ids[vm_idx];
        self.vm_down[vm_idx] = true;
        let mut victims: Vec<DeviceId> = self
            .sandboxes
            .iter()
            .filter(|(_, sb)| sb.vm == vm_idx)
            .map(|(&d, _)| d)
            .collect();
        // Stable order: recovery event scheduling must not depend on
        // hash-map iteration order.
        victims.sort_unstable_by_key(|d| d.0);
        self.cloud
            .lock()
            .expect("cloud lock poisoned")
            .fail_vm(vm_id);
        for &dev in &victims {
            self.sim.power_off(dev);
            for (lid, _, _) in self.topo.neighbors(dev).collect::<Vec<_>>() {
                let ep = ControlPlaneSim::link_endpoints(&self.topo, lid);
                self.sim.link_down(ep, at);
            }
        }
        victims
    }

    /// The §8.3 resetup cost for a set of victims: PhyNet restart +
    /// per-interface bridge setup + sandbox restart, scaling with
    /// deployment density.
    pub(crate) fn vm_recovery_cost(&self, victims: &[DeviceId]) -> SimDuration {
        let mut recovery = SimDuration::ZERO;
        for &dev in victims {
            let device = self.topo.device(dev);
            recovery += ContainerKind::PhyNet.start_cpu();
            recovery += self.options.bridge.setup_cpu() * (device.ifaces.len() as u64);
            recovery += SimDuration::from_millis(800); // sandbox restart
        }
        recovery
    }

    /// Boots fresh OS instances for `victims` at `restored_at` from their
    /// prepared configurations (or speaker scripts, with a bumped
    /// incarnation epoch so peers resync), and brings their links back.
    pub(crate) fn restore_devices(&mut self, victims: &[DeviceId], restored_at: SimTime) {
        for &dev in victims {
            if let Some(cfg) = self.effective_config(dev).cloned() {
                let profile = self
                    .options
                    .profile_overrides
                    .get(&dev)
                    .copied()
                    .unwrap_or_else(|| VendorProfile::for_vendor(self.topo.device(dev).vendor));
                let os = BgpRouterOs::new(profile, cfg, self.topo.device(dev).loopback);
                self.sim.replace_os(dev, Box::new(os));
            } else if let Some(mut os) = self.prep.speaker_plan.build_os(&self.topo, dev) {
                // A restarted speaker must present a fresh session token,
                // or peers treat its Open as a duplicate of the live
                // session and never flush its stale routes.
                // A swapped script survives the restart: the speaker must
                // come back announcing what `apply_change` installed, not
                // the original prepared plan.
                if let Some(scripts) = self.speaker_overrides.get(&dev) {
                    for (iface, script) in scripts {
                        os.set_script(*iface, script.clone());
                    }
                }
                let epoch = *self
                    .speaker_epochs
                    .entry(dev)
                    .and_modify(|e| *e += 1)
                    .or_insert(1);
                os.set_epoch(epoch);
                self.journal_event(
                    restored_at,
                    JournalKind::SpeakerRestarted {
                        device: dev.0,
                        epoch,
                    },
                );
                self.sim.replace_os(dev, Box::new(os));
            }
            self.sim.boot_device(dev, restored_at);
            self.recovering_until.insert(dev, restored_at);
            for (lid, _, _) in self.topo.neighbors(dev).collect::<Vec<_>>() {
                let ep = ControlPlaneSim::link_endpoints(&self.topo, lid);
                self.sim.link_up(ep, restored_at);
            }
        }
    }

    /// Injects a VM failure and runs the health monitor's recovery:
    /// neighbors see links drop; once the VM reboots, its sandboxes and
    /// links are re-created and its devices re-boot from their prepared
    /// configurations.
    ///
    /// Returns the recovery latency (§8.3): reset + resetup of the VM's
    /// devices and links, excluding the VM reboot itself. (The journal's
    /// `RecoveryComplete` entry records the full fault-to-restored
    /// latency including the reboot.)
    ///
    /// # Errors
    ///
    /// [`EmulationError::UnknownVm`] if `vm_idx` is outside the fleet;
    /// [`EmulationError::VmDown`] if that VM was already declared dead
    /// (e.g. quarantined by an earlier fault) — a dead VM cannot fail
    /// again.
    pub fn fail_and_recover_vm(&mut self, vm_idx: usize) -> Result<SimDuration, EmulationError> {
        if vm_idx >= self.vm_ids.len() {
            return Err(EmulationError::UnknownVm(vm_idx));
        }
        if self.vm_down[vm_idx] {
            return Err(EmulationError::VmDown(vm_idx));
        }
        let vm_id = self.vm_ids[vm_idx];
        let now = self.now();
        self.journal_event(
            now,
            JournalKind::FaultInjected {
                fault: format!("vm {vm_idx} crash (direct injection)"),
            },
        );

        // The VM dies: devices vanish; neighbors see link-down.
        let victims = self.crash_vm_devices(vm_idx, now);

        // Health monitor notices and reboots the VM (reboot time itself
        // is excluded from the §8.3 recovery metric).
        let reboot_done = self
            .cloud
            .lock()
            .expect("cloud lock poisoned")
            .reboot(vm_id, now);
        self.cloud
            .lock()
            .expect("cloud lock poisoned")
            .mark_running(vm_id, reboot_done);
        self.cloud
            .lock()
            .expect("cloud lock poisoned")
            .reset_cpu(vm_id, reboot_done);
        self.journal_event(
            now,
            JournalKind::RebootAttempt {
                vm: vm_idx,
                attempt: 1,
                backoff: SimDuration::ZERO,
            },
        );

        // Recovery: re-create PhyNet containers + links, restart device
        // software. Cost scales with deployment density on the VM.
        let recovery = self.vm_recovery_cost(&victims);
        let restored_at = reboot_done + recovery;

        // Fresh OS instances boot from the prepared configs.
        self.restore_devices(&victims, restored_at);
        self.vm_down[vm_idx] = false;
        self.journal_event(
            restored_at,
            JournalKind::RecoveryComplete {
                vm: vm_idx,
                latency: restored_at.since(now),
                devices: victims.len(),
            },
        );
        Ok(recovery)
    }

    /// `Clear`: resets all VMs to a clean state; returns the latency.
    pub fn clear(&mut self) -> SimDuration {
        let now = self.now();
        let mut cloud = self.cloud.lock().expect("cloud lock poisoned");
        for (vm_idx, planned) in self.prep.vm_plan.vms.iter().enumerate() {
            let vm = cloud.vm_mut(self.vm_ids[vm_idx]);
            for &dev in planned.devices.iter().chain(&planned.speakers) {
                let n = self.topo.device(dev).ifaces.len() as u64;
                vm.cpu.submit(now, self.options.bridge.teardown_cpu() * n);
                vm.cpu.submit(now, SimDuration::from_millis(300)); // container kill
            }
            vm.ram_used_mb = 0;
        }
        let done = self
            .vm_ids
            .iter()
            .map(|&id| cloud.vm(id).cpu.drained_at())
            .max()
            .unwrap_or(now);
        for engine in &mut self.engines {
            engine.clear();
        }
        done.since(now)
    }

    /// `Destroy`: releases the VM fleet; returns total dollars burned.
    pub fn destroy(self) -> f64 {
        let cost = self
            .cloud
            .lock()
            .expect("cloud lock poisoned")
            .cost_usd(self.now());
        self.cloud
            .lock()
            .expect("cloud lock poisoned")
            .destroy_all();
        cost
    }

    /// 95th-percentile CPU utilization across VMs per time bucket
    /// (Figure 9's series).
    #[must_use]
    pub fn cpu_p95_series(&self) -> Vec<f64> {
        let cloud = self.cloud.lock().expect("cloud lock poisoned");
        let until = self.now();
        let series: Vec<Vec<f64>> = cloud
            .vms()
            .iter()
            .map(|vm| vm.cpu.utilization_series(until))
            .collect();
        crystalnet_sim::metrics::pointwise_percentile(&series, 95.0)
    }

    /// The CPU histogram bucket width.
    #[must_use]
    pub fn cpu_bucket(&self) -> SimDuration {
        CloudParams::default().cpu_bucket
    }
}

impl Emulation {
    /// Forks the running emulation: the substrate behind
    /// [`Emulation::fork`](crate::session).
    ///
    /// Ownership rules, layer by layer:
    ///
    /// * **Control plane** — every device OS is *shared* with the child
    ///   behind its `Arc` and copied
    ///   ([`crystalnet_routing::DeviceOs::clone_boxed`]) by whichever
    ///   side first writes to it, so a fork costs what it later touches.
    ///   The engine's clock, scheduling sequence, and pending-event
    ///   residue are replicated exactly, which is what keeps a fork's
    ///   subsequent convergence bit-identical to the same steps applied
    ///   in place.
    /// * **Cloud** — deep-copied behind a *fresh* `Arc<Mutex<_>>`: CPU
    ///   server positions and the provisioning RNG resume from the fork
    ///   point, but child work accounting can never reach the parent.
    /// * **Telemetry** — the recorder is deep-copied
    ///   ([`crystalnet_telemetry::Recorder::snapshot`]), so a committed
    ///   fork's report reads "baseline + fork activity".
    /// * **Immutable spine** — `prep` and `topo` are shared by `Arc`.
    pub(crate) fn fork_emulation(&self) -> Emulation {
        let t_fork = self.options.profiling.then(Instant::now);
        let cloud = Arc::new(Mutex::new(
            self.cloud.lock().expect("cloud lock poisoned").clone(),
        ));
        let work: Box<dyn WorkModel> = {
            let model = self
                .sim
                .engine
                .world
                .work_ref()
                .as_any()
                .downcast_ref::<VmWorkModel>()
                .expect("mockup sims drive a VmWorkModel");
            let mut forked = model.clone();
            forked.cloud = cloud.clone();
            Box::new(forked)
        };
        let recorder = self.sim.engine.world.recorder.snapshot();
        let mut child = Emulation {
            topo: Arc::clone(&self.topo),
            sim: self.sim.fork_with(work, recorder),
            cloud,
            vm_ids: self.vm_ids.clone(),
            engines: self.engines.clone(),
            sandboxes: self.sandboxes.clone(),
            vlinks: self.vlinks.clone(),
            mgmt: self.mgmt.clone(),
            metrics: self.metrics,
            traces: self.traces.clone(),
            prep: Arc::clone(&self.prep),
            journal: self.journal.clone(),
            vm_down: self.vm_down.clone(),
            recovering_until: self.recovering_until.clone(),
            speaker_epochs: self.speaker_epochs.clone(),
            vnis: self.vnis.clone(),
            options: self.options.clone(),
            config_overrides: self.config_overrides.clone(),
            speaker_overrides: self.speaker_overrides.clone(),
            classification: self.classification.clone(),
            emulated_now: self.emulated_now.clone(),
            change_log: self.change_log.clone(),
            next_signature: self.next_signature,
        };
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

/// A `PullStates` row.
#[derive(Debug, Clone)]
pub struct DeviceState {
    /// Device id.
    pub device: DeviceId,
    /// Hostname.
    pub hostname: String,
    /// Whether the device is up.
    pub up: bool,
    /// Loc-RIB prefixes.
    pub rib_size: usize,
    /// FIB prefixes.
    pub fib_prefixes: usize,
    /// FIB entries counting ECMP members (Table 3's unit).
    pub fib_route_entries: usize,
}
