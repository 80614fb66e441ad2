//! Incremental operation rehearsal: config-diff-driven re-convergence.
//!
//! The Fig. 3 validation loop re-runs "apply change → inspect" many times
//! against one mockup. Rebuilding the emulation for every step would pay
//! the full route-ready cost each time (§8.2: minutes to hours at L-DC
//! scale), so [`EmulationFork::apply`](crate::EmulationFork::apply) instead:
//!
//! 1. classifies each change ([`classify_diff`]) — a no-op diff touches
//!    nothing, a policy edit soft-refreshes the live session (RFC 2918
//!    route refresh), only neighbor/interface/platform changes pay a
//!    session reset;
//! 2. predicts the **dirty set** of devices the change can reach by
//!    walking adjacency with speakers as barriers and a per-seed
//!    [`RippleScope`] bound
//!    ([`dirty_region_scoped`](crystalnet_net::dirty_region_scoped())) —
//!    static speakers never react (§5), so a ripple legally stops
//!    there, and an ACL-only refresh is predicted to stay one hop from
//!    its device. The prediction is a reporting aid and it does miss: a
//!    single leaf→spine link drain is *predicted* to stay inside its
//!    pod plus the spine tier, yet the spine's withdrawals also reach
//!    the leaves of its group in every other pod: on the 504-device
//!    M-DC 46 of the 66 devices whose FIB moves are such leaves,
//!    outside the 44 predicted. The FIB
//!    diff therefore covers the *full* emulated scope, so the
//!    prediction is audited, not trusted: every device it missed is in
//!    [`ConvergenceDelta::outside_dirty`] and counted in
//!    `core.apply_change.fib_changes_outside_dirty`;
//! 3. re-converges the existing sim while untouched devices stay the
//!    very OS instances the parent holds; and
//! 4. returns a typed [`ConvergenceDelta`]: per-device FIB
//!    adds/removes/modifies with provenance digests, the dirty-set size,
//!    and the virtual cost of the step.
//!
//! The diff (`diff_devices`) costs what the step touched: it holds the
//! pre-step OS handles, skips every device whose handle is still the
//! same `Arc` afterwards (nothing wrote to it — identity, never the
//! predicted dirty set, decides), and for the rest walks the old and new
//! FIB side by side, digesting provenance only for entries that differ.
//!
//! Steps 3 and 4 are the *measure bracket* (`measure_step`), shared with
//! [`EmulationFork::run_tools`](crate::EmulationFork::run_tools): a
//! tool-driven step is settled, diffed and journalled by the same code.
//!
//! The warm-start result is **bit-identical** to a cold full re-settle
//! from the same seed (`crates/core/tests/incremental.rs` proves it per
//! change kind): the event engine is deterministic
//! and quiescent state carries no pending work, so resuming it is
//! equivalent to replaying history.

use crate::emulation::{Emulation, EmulationError};
use crystalnet_boundary::Classification;
use crystalnet_config::{
    classify_diff, classify_ripple, config_diff, Change, ChangeImpact, ChangeSet, DeviceConfig,
};
use crystalnet_dataplane::NextHop;
use crystalnet_net::{dirty_region_scoped, DeviceId, Ipv4Prefix, LinkId, RippleScope};
use crystalnet_routing::{ControlPlaneSim, DeviceOs, MgmtCommand, PathAttrs, SpeakerScript};
use crystalnet_sim::{SimDuration, SimTime};
use crystalnet_telemetry::FieldValue;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How one prefix's FIB entry changed across an
/// [`EmulationFork::apply`](crate::EmulationFork::apply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FibChangeKind {
    /// The prefix was not installed before and is now.
    Added,
    /// The prefix was installed before and is gone.
    Removed,
    /// The prefix stayed installed but its ECMP set changed.
    Modified,
}

/// One FIB mutation observed on one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FibChange {
    /// The affected prefix.
    pub prefix: Ipv4Prefix,
    /// Add / remove / modify.
    pub kind: FibChangeKind,
    /// The ECMP set *after* the change (empty for [`FibChangeKind::Removed`]).
    pub next_hops: Vec<NextHop>,
    /// Provenance digest of the route behind the entry (PR 4's causal
    /// chain): the new route's digest for adds/modifies, the old route's
    /// for removes. `None` when the OS keeps no provenance (speakers).
    pub prov_digest: Option<u64>,
}

/// What `apply_change` did with one [`Change`] of the set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedChange {
    /// The change kind label ([`Change::kind`]).
    pub kind: &'static str,
    /// The device the change targeted, when it targets one.
    pub device: Option<DeviceId>,
    /// For config updates: the diff classification that picked the
    /// mechanism (no-op / soft refresh / session reset).
    pub impact: Option<ChangeImpact>,
}

/// The typed result of one incremental re-convergence step.
///
/// Every field is a deterministic world fact: identical across
/// repetitions for the same seed and change history. The struct
/// carries no wall-clock reading; what a step costs in host time is the
/// `core.apply` profile span's business.
#[derive(Debug, Clone)]
pub struct ConvergenceDelta {
    /// What was applied, in change-set order. Empty for a tool run
    /// ([`EmulationFork::run_tools`](crate::EmulationFork::run_tools)),
    /// which declares nothing and reports only what was measured.
    pub applied: Vec<AppliedChange>,
    /// The predicted dirty set: devices the change is structurally
    /// expected to reach (scoped ripple walk), in id order. A reporting
    /// aid, not a correctness bound — [`Self::fib_changes`] is diffed
    /// over the full emulated scope regardless.
    pub dirty: Vec<DeviceId>,
    /// Virtual time when the step reached route quiescence.
    pub settled_at: SimTime,
    /// Virtual time the step cost (settled minus the pre-step clock).
    pub virtual_cost: SimDuration,
    /// Simulation events executed by the step.
    pub events_executed: u64,
    /// Per-device FIB mutations over the full emulated scope,
    /// prefix-sorted. Authoritative: computed independently of the
    /// predicted dirty set, so a too-narrow prediction can never hide a
    /// mutation (misses are listed by [`Self::outside_dirty`] and counted
    /// in `core.apply_change.fib_changes_outside_dirty`).
    pub fib_changes: BTreeMap<DeviceId, Vec<FibChange>>,
    /// Health-plane probes launched while the step converged (zero when
    /// the health plane is off). With the probe mesh on, a rehearsed
    /// change reports *its own* SLO impact: how much traffic the
    /// transient would have hurt.
    pub probes_sent: u64,
    /// Health-plane probes lost during the step's transient.
    pub probes_lost: u64,
    /// Watchdog incidents fired during the step (health and congestion
    /// watchdogs combined).
    pub incidents: u64,
    /// Traffic-plane flows launched while the step converged (zero when
    /// the traffic plane is off). With traffic on, a rehearsed change
    /// reports what the transient did to *user load*, not just probes.
    pub flows_sent: u64,
    /// Flows lost during the step's transient.
    pub flows_lost: u64,
    /// Flows that completed during the step but crossed a device whose
    /// route had changed mid-flight — traffic rerouted by the change.
    pub flows_rerouted: u64,
}

impl ConvergenceDelta {
    /// Total FIB mutations across all devices.
    #[must_use]
    pub fn total_fib_changes(&self) -> usize {
        self.fib_changes.values().map(Vec::len).sum()
    }

    /// Devices whose FIB changed although the prediction left them out
    /// of [`Self::dirty`], in id order — the prediction's misses. A tool
    /// run predicts nothing ([`Self::applied`] is empty), so it has none.
    #[must_use]
    pub fn outside_dirty(&self) -> Vec<DeviceId> {
        if self.applied.is_empty() {
            return Vec::new();
        }
        self.fib_changes
            .keys()
            .filter(|d| self.dirty.binary_search(d).is_err())
            .copied()
            .collect()
    }

    /// One-line human summary for rehearsal logs.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} FIB change(s), {} virtual",
            self.total_fib_changes(),
            self.virtual_cost,
        );
        // A tool run (or an empty set) declares nothing, only measures.
        if !self.applied.is_empty() {
            let (n, dirty) = (self.applied.len(), self.dirty.len());
            s = format!("{n} change(s) -> {dirty} dirty device(s), {s}");
        }
        let missed = self.outside_dirty().len();
        if missed > 0 {
            s.push_str(&format!(
                "; {missed} changed device(s) outside the predicted dirty set"
            ));
        }
        if self.probes_sent > 0 {
            s.push_str(&format!(
                "; SLO impact: {}/{} probe(s) lost, {} incident(s)",
                self.probes_lost, self.probes_sent, self.incidents,
            ));
        }
        if self.flows_sent > 0 {
            s.push_str(&format!(
                "; traffic impact: {}/{} flow(s) lost, {} rerouted",
                self.flows_lost, self.flows_sent, self.flows_rerouted,
            ));
        }
        s
    }
}

/// A validated, ready-to-inject plan for one [`Change`].
enum Planned {
    Config {
        dev: DeviceId,
        cfg: Box<DeviceConfig>,
        impact: ChangeImpact,
    },
    /// The link, and whether it comes up (else goes down).
    Link(LinkId, bool),
    Remove(DeviceId),
    SpeakerSwap {
        dev: DeviceId,
        scripts: Vec<(u32, SpeakerScript)>,
    },
}

/// What an injection tells [`Emulation::measure_step`] about itself; the
/// bracket measures everything else.
#[derive(Default)]
pub(crate) struct Injected {
    /// The changes injected and the predicted dirty set (both empty for
    /// a tool run — a closure declares nothing).
    pub(crate) applied: Vec<AppliedChange>,
    pub(crate) dirty: BTreeSet<DeviceId>,
    /// The step's change-log line, when it is worth one.
    pub(crate) log: Option<String>,
    /// Whether anything was injected, i.e. whether to re-converge.
    pub(crate) did_work: bool,
}

/// What every measured step so far adds up to: the report's
/// `core.apply_change.*` series. A tool run counts as a step that
/// applied nothing, predicted nothing and so missed nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StepTotals {
    pub(crate) steps: u64,
    pub(crate) dirty_devices: u64,
    pub(crate) fib_changes: u64,
    pub(crate) fib_changes_outside_dirty: u64,
}

/// The packet-walk planes' running totals at one instant (zeros for a
/// plane that is off); a step's impact is the difference of two.
#[derive(Default)]
struct PlaneTotals {
    probes_sent: u64,
    probes_lost: u64,
    flows_sent: u64,
    flows_lost: u64,
    flows_rerouted: u64,
    incidents: u64,
}

impl Emulation {
    fn plane_totals(&self) -> PlaneTotals {
        let mut t = PlaneTotals {
            incidents: self.sim.incidents().len() as u64,
            ..PlaneTotals::default()
        };
        if let Some(h) = self.sim.health() {
            (t.probes_sent, t.probes_lost) = (h.probes_sent, h.probes_lost);
        }
        if let Some(f) = self.sim.traffic() {
            (t.flows_sent, t.flows_lost, t.flows_rerouted) =
                (f.flows_sent, f.flows_lost, f.flows_rerouted);
        }
        t
    }

    /// The measure bracket: the one place a staged step — a
    /// [`ChangeSet`] or a run of operator tools — is timed, settled,
    /// diffed and journalled. Checkpoint the engine, the plane totals
    /// and every OS handle; let `inject` mutate the emulation;
    /// re-converge; diff FIBs by handle identity and plane totals by
    /// subtraction; write the change-log entry, the step totals and the
    /// `apply_change` span. An `inject` error returns before anything is
    /// settled or logged.
    pub(crate) fn measure_step(
        &mut self,
        inject: impl FnOnce(&mut Self) -> Result<Injected, EmulationError>,
    ) -> Result<ConvergenceDelta, EmulationError> {
        let wall_start = std::time::Instant::now();
        let start = self.now();
        let mark = self.sim.engine.checkpoint();
        // Plane totals before the step: the diff after settle is the
        // step's own SLO and traffic impact (zeros when a plane is off).
        let totals_before = self.plane_totals();
        // Hold every OS as it is before injecting. The handles cover the
        // full emulated scope, not just the predicted dirty set, so the
        // reported diff is authoritative even if the prediction is short.
        let before = self.os_handles();
        let step = inject(self)?;

        // ---- Re-converge only if something was injected. ----
        let settled_at = if step.did_work {
            let deadline = start + self.options.deadline;
            // Route quiescence is stamped at the last route activity,
            // which a step that moved no route leaves before `start`.
            self.sim
                .run_until_quiet(self.options.quiet, deadline)
                .ok_or(EmulationError::NotConverged)?
                .max(start)
        } else {
            start
        };

        // ---- Diff the full scope's FIBs (authoritative). ----
        let fib_changes = diff_devices(&before, &self.sim);
        let (virtual_cost, events_executed) = self.sim.engine.cost_since(&mark);
        let totals_after = self.plane_totals();
        let delta = ConvergenceDelta {
            applied: step.applied,
            dirty: step.dirty.into_iter().collect(),
            settled_at,
            virtual_cost,
            events_executed,
            fib_changes,
            probes_sent: totals_after.probes_sent - totals_before.probes_sent,
            probes_lost: totals_after.probes_lost - totals_before.probes_lost,
            incidents: totals_after.incidents - totals_before.incidents,
            flows_sent: totals_after.flows_sent - totals_before.flows_sent,
            flows_lost: totals_after.flows_lost - totals_before.flows_lost,
            flows_rerouted: totals_after.flows_rerouted - totals_before.flows_rerouted,
        };

        // Incident correlation reads this log: the step lands at its
        // application instant.
        if let Some(entry) = step.log {
            self.change_log.push((start, entry));
        }

        let total = delta.total_fib_changes() as u64;
        let t = self.step_totals.get_or_insert_with(StepTotals::default);
        t.steps += delta.applied.len() as u64;
        t.dirty_devices += delta.dirty.len() as u64;
        t.fib_changes += total;
        // Prediction misses: devices whose FIB moved outside the
        // predicted dirty set. Zero when the scope bound is honest.
        t.fib_changes_outside_dirty += delta.outside_dirty().len() as u64;
        let rec = &mut *self.sim.engine.world.recorder;
        if rec.profiling_enabled() {
            rec.profile_add(
                crystalnet_telemetry::profile::keys::APPLY,
                wall_start.elapsed().as_nanos() as u64,
            );
        }
        if rec.enabled() {
            rec.span("apply_change", None, start, settled_at);
            rec.event(
                settled_at,
                "apply_change",
                vec![
                    ("changes", FieldValue::U64(delta.applied.len() as u64)),
                    ("dirty", FieldValue::U64(delta.dirty.len() as u64)),
                    ("fib_changes", FieldValue::U64(total)),
                ],
            );
        }
        Ok(delta)
    }

    /// Validates a parsed change set against the running emulation and
    /// injects it — what [`EmulationFork::apply`](crate::EmulationFork::apply)
    /// hands [`Self::measure_step`].
    ///
    /// A config update goes by its classification: [`ChangeImpact::NoOp`]
    /// injects nothing, [`ChangeImpact::SoftRefresh`] soft-applies over
    /// the live session ([`MgmtCommand::UpdatePolicy`]; peers replay
    /// their announcements so tightened import policy re-filters),
    /// [`ChangeImpact::SessionReset`] reloads the device (two-layer
    /// [`Emulation::reload`]) and pays real downtime. Link and topology
    /// changes map to their Table 2 operations;
    /// [`Change::SpeakerRouteSwap`] rebuilds the speaker's static script
    /// under a bumped incarnation epoch so peers flush and resync.
    ///
    /// Nothing is mutated until the whole set validates — each change
    /// against the emulation *and* against the set's own earlier
    /// removals, so a change aimed at a device the set has already
    /// decommissioned is a typed error, not a half-applied set.
    pub(crate) fn inject_changes(
        &mut self,
        changes: &ChangeSet,
    ) -> Result<Injected, EmulationError> {
        // ---- Validate everything before mutating anything. ----
        let mut planned = Vec::new();
        let mut applied = Vec::new();
        let mut seeds: Vec<(DeviceId, RippleScope)> = Vec::new();
        let mut removed: BTreeSet<DeviceId> = BTreeSet::new();
        for change in &changes.changes {
            // A device the set has already removed is as unknown as one
            // that was never emulated.
            let guard = |dev: DeviceId| {
                if removed.contains(&dev) {
                    return Err(self.unknown_device(dev));
                }
                self.guard(dev)
            };
            // Each arm validates, seeds the ripple, and answers the
            // targeted device, the config classification, and the plan.
            let (device, impact, plan) = match change {
                Change::ConfigUpdate { device, config } => {
                    let dev = *device;
                    guard(dev)?;
                    let old = self
                        .effective_config(dev)
                        .ok_or_else(|| self.unknown_device(dev))?;
                    let diff = config_diff(old, config);
                    let impact = classify_diff(&diff);
                    if impact != ChangeImpact::NoOp {
                        seeds.push((dev, classify_ripple(&diff)));
                    }
                    let cfg = config.clone();
                    (
                        Some(dev),
                        Some(impact),
                        Planned::Config { dev, cfg, impact },
                    )
                }
                Change::LinkDown(lid) | Change::LinkUp(lid) => {
                    if !self.link_emulated(*lid) {
                        return Err(EmulationError::UnknownLink(lid.0));
                    }
                    let link = self.topo.link(*lid);
                    if removed.contains(&link.a.device) || removed.contains(&link.b.device) {
                        return Err(EmulationError::UnknownLink(lid.0));
                    }
                    // A link flap changes reachability, but Clos ECMP
                    // redundancy keeps the blast radius inside the
                    // affected pod(s) plus the shared spine/border tier.
                    seeds.push((link.a.device, RippleScope::PodAndCore));
                    seeds.push((link.b.device, RippleScope::PodAndCore));
                    let up = matches!(change, Change::LinkUp(_));
                    (None, None, Planned::Link(*lid, up))
                }
                Change::DeviceRemove(dev) => {
                    let dev = *dev;
                    guard(dev)?;
                    removed.insert(dev);
                    seeds.push((dev, RippleScope::Fabric));
                    for n in self.topo.neighbor_devices(dev) {
                        if self.sandboxes.contains_key(&n) {
                            seeds.push((n, RippleScope::Fabric));
                        }
                    }
                    (Some(dev), None, Planned::Remove(dev))
                }
                Change::SpeakerRouteSwap { device, routes } => {
                    let dev = *device;
                    guard(dev)?;
                    let planned_scripts = self
                        .prep
                        .speaker_scripts(dev)
                        .ok_or_else(|| self.unknown_device(dev))?;
                    let loopback = self.topo.device(dev).loopback;
                    let script = SpeakerScript {
                        routes: routes
                            .iter()
                            .map(|r| {
                                (
                                    r.prefix,
                                    PathAttrs {
                                        as_path: r.as_path.clone(),
                                        med: r.med,
                                        ..PathAttrs::originated(loopback)
                                    }
                                    .intern(),
                                )
                            })
                            .collect(),
                    };
                    let scripts: Vec<(u32, SpeakerScript)> = planned_scripts
                        .iter()
                        .map(|(iface, _)| (*iface, script.clone()))
                        .collect();
                    seeds.push((dev, RippleScope::Fabric));
                    (Some(dev), None, Planned::SpeakerSwap { dev, scripts })
                }
            };
            let kind = change.kind();
            applied.push(AppliedChange {
                kind,
                device,
                impact,
            });
            planned.push(plan);
        }

        // ---- Dirty set: scoped adjacency walk, speakers as barriers. ----
        // Classified afresh: one pass over the topology per change set.
        let scope: BTreeSet<DeviceId> = self.sandboxes.keys().copied().collect();
        let class = Classification::new(&self.topo, &self.emulated_now);
        let barriers: BTreeSet<DeviceId> = class.speakers().into_iter().collect();
        let dirty = dirty_region_scoped(&self.topo, &scope, &seeds, &barriers);

        // ---- Inject. ----
        let now = self.now();
        // Everything but a no-op config edit injects something to settle.
        let did_work = applied.iter().any(|a| a.impact != Some(ChangeImpact::NoOp));
        for plan in planned {
            match plan {
                Planned::Config { dev, cfg, impact } => match impact {
                    ChangeImpact::NoOp => {}
                    ChangeImpact::SoftRefresh => {
                        self.config_overrides.insert(dev, (*cfg).clone());
                        self.sim.mgmt(dev, MgmtCommand::UpdatePolicy(cfg), now);
                    }
                    ChangeImpact::SessionReset => {
                        self.reload(dev, *cfg, false);
                    }
                },
                Planned::Link(lid, up) => {
                    if up {
                        self.connect(lid);
                    } else {
                        self.disconnect(lid);
                    }
                }
                Planned::Remove(dev) => self.remove_device(dev, now),
                Planned::SpeakerSwap { dev, scripts } => {
                    // The old incarnation goes dark (peers flush); the
                    // revived one announces the recorded override under a
                    // bumped epoch, and peers resync against it.
                    self.speaker_overrides.insert(dev, scripts);
                    self.isolate(dev, now);
                    self.restore_devices(&[dev], now);
                }
            }
        }

        // The change lands in the log described by its change kinds.
        let log = (!applied.is_empty()).then(|| {
            let kinds: Vec<&'static str> = applied.iter().map(|a| a.kind).collect();
            format!("change applied: {}", kinds.join(", "))
        });
        Ok(Injected {
            applied,
            dirty,
            log,
            did_work,
        })
    }

    /// Decommissions one device mid-run: it is isolated, its pending
    /// events are discarded, its sandbox stops, and it leaves the
    /// emulated set.
    fn remove_device(&mut self, dev: DeviceId, at: SimTime) {
        self.isolate(dev, at);
        self.sim.remove_device(dev);
        if let Some(sb) = self.sandboxes.remove(&dev) {
            self.engines[sb.vm].stop(sb.device);
            self.engines[sb.vm].stop(sb.phynet);
        }
        self.emulated_now.remove(&dev);
        self.config_overrides.remove(&dev);
        self.recovering_until.remove(&dev);
        let rec = &mut *self.sim.engine.world.recorder;
        if rec.enabled() {
            rec.event(
                at,
                "device_removed",
                vec![("device", FieldValue::U64(u64::from(dev.0)))],
            );
        }
    }

    /// The OS instance of every emulated device as of now — what a later
    /// [`diff_devices`] compares against, by identity first. Holding the
    /// handles keeps these instances alive and unchanged: the sim copies
    /// an OS before writing to it while anyone else holds it.
    pub(crate) fn os_handles(&self) -> OsHandles {
        self.sandboxes
            .keys()
            .filter_map(|&dev| Some((dev, Arc::clone(self.sim.os_handle(dev)?))))
            .collect()
    }
}

/// Per-device OS handles at one instant (a device with no OS has no FIB
/// to diff and is left out).
pub(crate) type OsHandles = BTreeMap<DeviceId, Arc<dyn DeviceOs>>;

/// Per-device FIB diff between the OSes held in `before` and the ones
/// `now` runs, prefix-sorted; devices with no mutations are omitted, a
/// device `now` no longer has reports every entry removed.
///
/// A device whose handle is still the same `Arc` was not written to and
/// is skipped without looking at its tables; the others are compared
/// entry by entry in place, and provenance is digested only for the
/// entries that differ (the old route's for removes, the new one's
/// otherwise).
pub(crate) fn diff_devices(
    before: &OsHandles,
    now: &ControlPlaneSim,
) -> BTreeMap<DeviceId, Vec<FibChange>> {
    let mut out = BTreeMap::new();
    for (&dev, old) in before {
        let new = now.os_handle(dev);
        if new.is_some_and(|new| Arc::ptr_eq(old, new)) {
            continue;
        }
        let mut changes = Vec::new();
        for (prefix, entry) in old.fib().iter() {
            match new.and_then(|os| os.fib().get(prefix)) {
                None => changes.push(FibChange {
                    prefix,
                    kind: FibChangeKind::Removed,
                    next_hops: Vec::new(),
                    prov_digest: old.prov_digest(prefix),
                }),
                Some(new_entry) if new_entry != entry => changes.push(FibChange {
                    prefix,
                    kind: FibChangeKind::Modified,
                    next_hops: new_entry.next_hops.clone(),
                    prov_digest: new.and_then(|os| os.prov_digest(prefix)),
                }),
                Some(_) => {}
            }
        }
        if let Some(os) = new {
            for (prefix, entry) in os.fib().iter() {
                if old.fib().get(prefix).is_none() {
                    changes.push(FibChange {
                        prefix,
                        kind: FibChangeKind::Added,
                        next_hops: entry.next_hops.clone(),
                        prov_digest: os.prov_digest(prefix),
                    });
                }
            }
        }
        changes.sort_by_key(|c| c.prefix);
        if !changes.is_empty() {
            out.insert(dev, changes);
        }
    }
    out
}
