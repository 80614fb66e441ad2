//! What a [`mockup`](crate::mockup) is asked to do and how its API fails:
//! [`MockupOptions`] with its validating builder, and the typed
//! [`EmulationError`] every control/monitor call answers with.

use crate::faults::{FaultPlan, HealthPolicy};
use crystalnet_net::{DeviceId, Ipv4Prefix, Topology};
use crystalnet_routing::{ProbeConfig, TrafficConfig, VendorProfile};
use crystalnet_sim::SimDuration;
use crystalnet_vnet::BridgeImpl;
use std::collections::HashMap;

/// A typed failure from the [`Emulation`](crate::Emulation)
/// control/monitor surface.
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
    /// Accepted for compatibility; every value runs serially.
    pub workers: usize,
    /// Faults to inject once the mockup is route-ready (offsets are
    /// relative to that instant). Executed automatically by
    /// [`mockup`](crate::mockup); empty by default.
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
    /// span timings, the (one-shard) `scaling_diagnosis`, and memory
    /// accounting — surfaced through `RunReport::to_json_full()`. Off
    /// by default: wall timing is nondeterministic and the canonical
    /// report must stay byte-stable. Implies `telemetry`.
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

    /// The firmware profile `dev` boots: its override, else its
    /// vendor's released image.
    pub(crate) fn profile_for(&self, topo: &Topology, dev: DeviceId) -> VendorProfile {
        self.profile_overrides
            .get(&dev)
            .copied()
            .unwrap_or_else(|| VendorProfile::for_vendor(topo.device(dev).vendor))
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

    /// Accepted for compatibility; every value runs serially.
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
