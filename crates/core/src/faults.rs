//! Deterministic fault injection and failure recovery.
//!
//! "PhyNet's health monitoring service detects failures of VMs ... and
//! recovers them automatically" — this module is that subsystem for the
//! emulated orchestrator. A [`FaultPlan`] is a seed-reproducible timeline
//! of infrastructure faults (VM crashes, slow restarts, speaker-agent
//! crashes, link-flap bursts, delayed heartbeats) injected between event-
//! queue drains of the running [`Emulation`]. The health monitor reacts
//! with fixed-interval heartbeat accounting, bounded exponential reboot
//! retries, and — when retries are exhausted — graceful degradation:
//! the dead VM's sandboxes are quarantined onto a spare VM (picked by
//! topology-adjacency affinity, or freshly provisioned) and replayed
//! through boot + config load while untouched devices keep converging.
//!
//! Every step emits a structured [`JournalKind`] entry, so tests and
//! benches can assert recovery latency and that post-recovery FIBs are
//! bit-identical to a fault-free run without scraping logs.

use crate::emulation::{Emulation, EmulationError};
use crate::metrics::JournalKind;
use crystalnet_net::{best_spare, DeviceId, LinkId};
use crystalnet_sim::{Backoff, HeartbeatSchedule, SimDuration, SimRng, SimTime};
use crystalnet_vnet::{ContainerEngine, ContainerKind, VmSku};
use std::sync::Arc;

/// One kind of infrastructure fault the plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A VM dies and its first reboot attempt succeeds.
    VmCrash {
        /// VM index in the fleet.
        vm: usize,
    },
    /// A VM dies and the first `failed_attempts` reboot attempts fail.
    /// If that exhausts the retry budget, the VM is quarantined and its
    /// sandboxes re-placed on a spare.
    VmSlowRestart {
        /// VM index in the fleet.
        vm: usize,
        /// Reboot attempts that fail before one succeeds.
        failed_attempts: u32,
    },
    /// A speaker agent crashes; the monitor restarts it with a fresh
    /// incarnation epoch on the next heartbeat tick.
    SpeakerCrash {
        /// The speaker device.
        device: DeviceId,
    },
    /// A link flaps down/up `flaps` times, one transition per `period`.
    LinkFlapBurst {
        /// The production link.
        link: LinkId,
        /// Down/up cycles.
        flaps: u32,
        /// Time between transitions.
        period: SimDuration,
    },
    /// A healthy VM's heartbeats are delayed (stalled reporter, not a
    /// dead VM). At or above the miss threshold the monitor cannot tell
    /// the difference and power-cycles the healthy VM.
    DelayedHeartbeat {
        /// VM index in the fleet.
        vm: usize,
        /// Consecutive heartbeats that go missing.
        misses: u32,
    },
    /// A device's dataplane silently stops forwarding while its control
    /// plane keeps running: BGP sessions stay up, the FIB stays
    /// "correct", heartbeats keep flowing — the gray failure that final
    /// state checks cannot see. Persistent until
    /// [`crate::Emulation::set_forwarding`] restores it. Only the
    /// health plane's probes observe it.
    SilentBlackhole {
        /// The device whose forwarding dies.
        device: DeviceId,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultKind::VmCrash { vm } => write!(f, "vm {vm} crash"),
            FaultKind::VmSlowRestart {
                vm,
                failed_attempts,
            } => {
                write!(f, "vm {vm} slow restart ({failed_attempts} failed reboots)")
            }
            FaultKind::SpeakerCrash { device } => write!(f, "speaker #{} crash", device.0),
            FaultKind::LinkFlapBurst {
                link,
                flaps,
                period,
            } => write!(
                f,
                "link #{} flap burst ({flaps}x every {period:?})",
                link.0 //
            ),
            FaultKind::DelayedHeartbeat { vm, misses } => {
                write!(f, "vm {vm} heartbeat delayed ({misses} misses)")
            }
            FaultKind::SilentBlackhole { device } => {
                write!(f, "device #{} silent blackhole", device.0)
            }
        }
    }
}

/// A fault scheduled at an offset from the plan's start instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Offset from the instant the plan starts executing.
    pub after: SimDuration,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic timeline of faults.
///
/// Build one explicitly with [`FaultPlan::then`], or derive one from a
/// seed with [`FaultPlan::generate`] — the same seed always yields the
/// same plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults (executed in `after` order).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Appends a fault `after` the plan start; builder-style.
    #[must_use]
    pub fn then(mut self, after: SimDuration, kind: FaultKind) -> Self {
        self.push(after, kind);
        self
    }

    /// Appends a fault `after` the plan start.
    pub fn push(&mut self, after: SimDuration, kind: FaultKind) {
        self.events.push(FaultEvent { after, kind });
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Derives a plan of up to `events` faults from `seed`, spread over
    /// `horizon`, drawing targets from the given fleet/link/speaker
    /// populations. Fault kinds whose population is empty are skipped,
    /// so the plan may come out shorter than `events`.
    #[must_use]
    pub fn generate(
        seed: u64,
        horizon: SimDuration,
        vm_count: usize,
        links: &[LinkId],
        speakers: &[DeviceId],
        events: usize,
    ) -> FaultPlan {
        let mut rng = SimRng::for_component(seed, "fault-plan");
        let mut plan = FaultPlan::default();
        for _ in 0..events {
            let after = SimDuration::from_nanos(rng.below(horizon.as_nanos().max(1)));
            let kind = match rng.below(5) {
                0 if vm_count > 0 => FaultKind::VmCrash {
                    vm: rng.below(vm_count as u64) as usize,
                },
                1 if vm_count > 0 => FaultKind::VmSlowRestart {
                    vm: rng.below(vm_count as u64) as usize,
                    failed_attempts: 1 + rng.below(2) as u32,
                },
                2 if !speakers.is_empty() => FaultKind::SpeakerCrash {
                    device: *rng.pick(speakers).expect("non-empty"),
                },
                3 if !links.is_empty() => FaultKind::LinkFlapBurst {
                    link: *rng.pick(links).expect("non-empty"),
                    flaps: 1 + rng.below(3) as u32,
                    period: SimDuration::from_secs(1 + rng.below(5)),
                },
                4 if vm_count > 0 => FaultKind::DelayedHeartbeat {
                    vm: rng.below(vm_count as u64) as usize,
                    misses: 1 + rng.below(3) as u32,
                },
                _ => continue,
            };
            plan.events.push(FaultEvent { after, kind });
        }
        plan.events.sort_by_key(|e| e.after);
        plan
    }
}

/// Bounded reboot-retry policy: exponential backoff from `base`, capped
/// at `cap`, giving up after `max_attempts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First retry delay.
    pub base: SimDuration,
    /// Delay ceiling.
    pub cap: SimDuration,
    /// Attempts before quarantine.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: SimDuration::from_secs(2),
            cap: SimDuration::from_secs(30),
            max_attempts: 4,
        }
    }
}

impl RetryPolicy {
    /// A fresh backoff iterator under this policy.
    #[must_use]
    pub fn backoff(&self) -> Backoff {
        Backoff::new(self.base, self.cap, self.max_attempts)
    }
}

/// Health-monitor policy: how VM liveness is watched and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Expected heartbeat interval.
    pub heartbeat: SimDuration,
    /// Consecutive misses before a VM is declared dead.
    pub miss_threshold: u32,
    /// Reboot-retry policy once declared dead.
    pub retry: RetryPolicy,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            heartbeat: SimDuration::from_secs(10),
            miss_threshold: 3,
            retry: RetryPolicy::default(),
        }
    }
}

/// Summary of one [`Emulation::run_fault_plan`] execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultReport {
    /// Faults injected.
    pub injected: usize,
    /// Recoveries completed during this plan.
    pub recoveries: usize,
    /// When the network re-converged after the last fault.
    pub settled_at: SimTime,
}

impl Emulation {
    /// Executes a fault plan against the running emulation: the sim is
    /// driven to each fault's instant (untouched devices keep converging
    /// in virtual time), the fault is applied, the health monitor's
    /// detection/retry/quarantine reaction is played out, and finally the
    /// network is settled back to quiescence.
    ///
    /// # Errors
    ///
    /// Validation happens before anything is injected:
    /// [`EmulationError::UnknownVm`] / [`EmulationError::UnknownDevice`] /
    /// [`EmulationError::UnknownLink`] for out-of-range targets, and
    /// [`EmulationError::NotConverged`] if the network fails to settle
    /// after the plan.
    pub fn run_fault_plan(&mut self, plan: &FaultPlan) -> Result<FaultReport, EmulationError> {
        for ev in &plan.events {
            match ev.kind {
                FaultKind::VmCrash { vm }
                | FaultKind::VmSlowRestart { vm, .. }
                | FaultKind::DelayedHeartbeat { vm, .. } => {
                    if vm >= self.vm_ids.len() {
                        return Err(EmulationError::UnknownVm(vm));
                    }
                }
                FaultKind::SpeakerCrash { device } => {
                    // A planned speaker a committed change removed is no
                    // longer emulated.
                    if self.prep.speaker_scripts(device).is_none()
                        || !self.sandboxes.contains_key(&device)
                    {
                        return Err(self.unknown_device(device));
                    }
                }
                FaultKind::LinkFlapBurst { link, .. } => {
                    if !self.link_emulated(link) {
                        return Err(EmulationError::UnknownLink(link.0));
                    }
                }
                FaultKind::SilentBlackhole { device } => {
                    if !self.sandboxes.contains_key(&device) {
                        return Err(self.unknown_device(device));
                    }
                }
            }
        }

        let start = self.now();
        let recoveries_before = self.journal.recoveries().len();
        let mut events = plan.events.clone();
        // Stable sort: same-offset faults keep their plan order.
        events.sort_by_key(|e| e.after);
        for ev in &events {
            // Drain the queue up to the fault instant, so the fault lands
            // amid whatever convergence activity is in flight.
            self.sim.run_until(start + ev.after);
            let t = self.now();
            self.apply_fault(t, &ev.kind);
        }
        let settled_at = self.settle()?;
        Ok(FaultReport {
            injected: events.len(),
            recoveries: self.journal.recoveries().len() - recoveries_before,
            settled_at,
        })
    }

    fn apply_fault(&mut self, t: SimTime, kind: &FaultKind) {
        self.journal_event(
            t,
            JournalKind::FaultInjected {
                fault: kind.to_string(),
            },
        );
        match *kind {
            FaultKind::VmCrash { vm } => self.vm_fault(t, vm, 0),
            FaultKind::VmSlowRestart {
                vm,
                failed_attempts,
            } => self.vm_fault(t, vm, failed_attempts),
            FaultKind::SpeakerCrash { device } => self.speaker_fault(t, device),
            FaultKind::LinkFlapBurst {
                link,
                flaps,
                period,
            } => {
                for i in 0..u64::from(flaps) {
                    let down_at = t + period * (2 * i);
                    let up_at = t + period * (2 * i + 1);
                    self.disconnect_at(link, down_at);
                    self.journal_event(
                        down_at,
                        JournalKind::LinkFlap {
                            link: link.0,
                            up: false,
                        },
                    );
                    self.connect_at(link, up_at);
                    self.journal_event(
                        up_at,
                        JournalKind::LinkFlap {
                            link: link.0,
                            up: true,
                        },
                    );
                }
            }
            FaultKind::SilentBlackhole { device } => {
                // No session reset, no heartbeat miss, no journal beyond
                // the injection record above: the whole point is that
                // nothing but a live probe notices.
                self.sim.set_forwarding(device, false);
            }
            FaultKind::DelayedHeartbeat { vm, misses } => {
                let detected = self.journal_misses(t, vm, misses);
                if misses >= self.options.health.miss_threshold && !self.vm_down[vm] {
                    // The monitor cannot tell a stalled reporter from a
                    // dead VM: past the threshold it declares death and
                    // power-cycles a VM that was actually healthy.
                    self.journal_event(detected, JournalKind::VmDeclaredDead { vm });
                    let victims = self.crash_vm_devices(vm, detected);
                    self.retry_and_restore(t, detected, vm, 0, &victims);
                }
            }
        }
    }

    /// A VM dies at `t`; the monitor detects it via missed heartbeats and
    /// retries reboots, the first `failed_attempts` of which fail.
    fn vm_fault(&mut self, t: SimTime, vm: usize, failed_attempts: u32) {
        if self.vm_down[vm] {
            // Already dead (e.g. quarantined earlier in the plan): the
            // injection is journaled above but there is nothing to kill.
            return;
        }
        let victims = self.crash_vm_devices(vm, t);
        let detected = self.journal_misses(t, vm, self.options.health.miss_threshold);
        self.journal_event(detected, JournalKind::VmDeclaredDead { vm });
        self.retry_and_restore(t, detected, vm, failed_attempts, &victims);
    }

    /// Journals `misses` consecutive heartbeat misses for `vm` starting
    /// from the first tick after `t`; returns the last miss instant.
    fn journal_misses(&mut self, t: SimTime, vm: usize, misses: u32) -> SimTime {
        let hb = HeartbeatSchedule::new(SimTime::ZERO, self.options.health.heartbeat);
        let mut tick = hb.next_after(t);
        for m in 1..=misses.max(1) {
            self.journal_event(tick, JournalKind::HeartbeatMissed { vm, consecutive: m });
            if m < misses {
                tick = hb.next_after(tick);
            }
        }
        tick
    }

    /// Plays the bounded-backoff reboot loop for a dead VM. The first
    /// `failed_attempts` attempts fail; a later attempt restores the VM.
    /// If the budget is exhausted first, the VM is quarantined and its
    /// sandboxes re-placed on a spare.
    fn retry_and_restore(
        &mut self,
        fault_at: SimTime,
        detected_at: SimTime,
        vm: usize,
        failed_attempts: u32,
        victims: &[DeviceId],
    ) {
        let mut backoff = self.options.health.retry.backoff();
        let mut when = detected_at;
        loop {
            let Some(delay) = backoff.next_delay() else {
                self.quarantine_to_spare(fault_at, when, vm, victims);
                return;
            };
            when += delay;
            let attempt = backoff.attempts();
            self.journal_event(
                when,
                JournalKind::RebootAttempt {
                    vm,
                    attempt,
                    backoff: delay,
                },
            );
            if attempt <= failed_attempts {
                continue; // this reboot attempt fails
            }
            self.reboot_and_restore(fault_at, when, vm, victims);
            return;
        }
    }

    /// Graceful degradation: the dead VM is abandoned and its sandboxes
    /// re-placed on a spare VM — the running VM with enough free RAM and
    /// the most production links into the displaced set (so as many
    /// re-placed links as possible become intra-VM), or a freshly
    /// provisioned VM when no candidate fits. Containers are re-created,
    /// links re-provisioned (spans re-derived), and the devices replay
    /// boot + config load while untouched devices keep converging.
    fn quarantine_to_spare(
        &mut self,
        fault_at: SimTime,
        when: SimTime,
        dead_vm: usize,
        victims: &[DeviceId],
    ) {
        let needed: u32 = victims
            .iter()
            .map(|&dev| self.prep.container_kind(dev).ram_mb() + ContainerKind::PhyNet.ram_mb())
            .sum();

        // Candidate spares: running VMs with room, ranked by adjacency.
        let cand_idx: Vec<usize> = (0..self.vm_ids.len())
            .filter(|&idx| idx != dead_vm && !self.vm_down[idx])
            .filter(|&idx| self.cloud().vm(self.vm_ids[idx]).ram_free_mb() >= needed)
            .collect();
        let cand_devs: Vec<Vec<DeviceId>> =
            cand_idx.iter().map(|&idx| self.devices_on(idx)).collect();
        let cand_refs: Vec<&[DeviceId]> = cand_devs.iter().map(Vec::as_slice).collect();

        let (spare, setup_from) = match best_spare(&self.topo, victims, &cand_refs) {
            Some(i) => (cand_idx[i], when),
            None => {
                // No running VM has room: provision a fresh spare.
                let cloud = self.cloud_mut();
                let (id, ready) = cloud.provision(VmSku::standard_4c8g(), when);
                cloud.mark_running(id, ready);
                self.vm_ids.push(id);
                self.engines.push(ContainerEngine::new());
                self.vm_down.push(false);
                self.mgmt.attach_vm(id);
                (self.vm_ids.len() - 1, ready)
            }
        };
        self.journal_event(when, JournalKind::VmQuarantined { vm: dead_vm, spare });

        // Re-place the sandboxes on the spare, then re-provision the
        // victims' links: endpoints moved VMs, so spans (and VXLAN
        // tunnels) must be re-derived.
        let topo = Arc::clone(&self.topo);
        for &dev in victims {
            self.place(dev, spare, setup_from);
        }
        for (lid, l) in topo.links() {
            if !victims.contains(&l.a.device) && !victims.contains(&l.b.device) {
                continue;
            }
            let Some(vl) = self.wire(lid, setup_from) else {
                continue; // one end outside the emulation
            };
            match self.vlinks.iter_mut().find(|v| v.link == lid) {
                Some(slot) => *slot = vl,
                None => self.vlinks.push(vl),
            }
        }

        let restored_at = setup_from + self.vm_recovery_cost(victims);
        self.recover(fault_at, restored_at, spare, victims);
    }

    /// A speaker agent crashes at `t`: its links drop, the monitor
    /// notices on the next heartbeat tick and restarts the agent with a
    /// bumped incarnation epoch, forcing peers to flush and resync.
    fn speaker_fault(&mut self, t: SimTime, device: DeviceId) {
        self.isolate(device, t);
        let hb = HeartbeatSchedule::new(SimTime::ZERO, self.options.health.heartbeat);
        // Agent restart is cheap: no namespace rebuild, just the process.
        let restored_at = hb.next_after(t) + SimDuration::from_secs(3);
        self.recover(t, restored_at, self.sandboxes[&device].vm, &[device]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_plans_are_seed_deterministic_and_time_sorted() {
        let links = [LinkId(0), LinkId(3), LinkId(7)];
        let speakers = [DeviceId(40), DeviceId(41)];
        let a = FaultPlan::generate(9, SimDuration::from_mins(30), 4, &links, &speakers, 12);
        let b = FaultPlan::generate(9, SimDuration::from_mins(30), 4, &links, &speakers, 12);
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.is_empty());
        assert!(a.events.windows(2).all(|w| w[0].after <= w[1].after));
        let c = FaultPlan::generate(10, SimDuration::from_mins(30), 4, &links, &speakers, 12);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn generate_skips_kinds_with_empty_populations() {
        // No links, no speakers: only VM faults can be drawn.
        let plan = FaultPlan::generate(3, SimDuration::from_mins(10), 2, &[], &[], 20);
        for ev in &plan.events {
            match ev.kind {
                FaultKind::VmCrash { vm }
                | FaultKind::VmSlowRestart { vm, .. }
                | FaultKind::DelayedHeartbeat { vm, .. } => assert!(vm < 2),
                other => panic!("drew {other:?} from an empty population"),
            }
        }
    }

    #[test]
    fn retry_policy_backoff_matches_policy_fields() {
        let policy = RetryPolicy {
            base: SimDuration::from_secs(1),
            cap: SimDuration::from_secs(4),
            max_attempts: 3,
        };
        let mut b = policy.backoff();
        assert_eq!(b.next_delay(), Some(SimDuration::from_secs(1)));
        assert_eq!(b.next_delay(), Some(SimDuration::from_secs(2)));
        assert_eq!(b.next_delay(), Some(SimDuration::from_secs(4)));
        assert_eq!(b.next_delay(), None);
    }

    #[test]
    fn plan_builder_keeps_push_order_until_executed() {
        let plan = FaultPlan::default()
            .then(SimDuration::from_secs(30), FaultKind::VmCrash { vm: 1 })
            .then(
                SimDuration::from_secs(10),
                FaultKind::DelayedHeartbeat { vm: 0, misses: 1 },
            );
        assert_eq!(plan.len(), 2);
        // The builder records in call order; run_fault_plan sorts.
        assert_eq!(plan.events[0].after, SimDuration::from_secs(30));
    }
}
