//! Emulation metrics: the quantities §8 reports.

use crystalnet_sim::{SimDuration, SimTime};
use crystalnet_telemetry::{EventRecord, FieldValue};
use serde::{Deserialize, Serialize};

/// Latency breakdown of one Mockup run (the Figure 8 quantities).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MockupMetrics {
    /// "The duration from the start of creating an emulation to the
    /// moment when all virtual links are up."
    pub network_ready: SimDuration,
    /// "The duration from Network-ready to the moment when all routes
    /// are installed and stabilized in all switches."
    pub route_ready: SimDuration,
    /// Sum of the two: the full Mockup latency.
    pub mockup: SimDuration,
    /// Total route operations processed during bring-up.
    pub route_ops: u64,
    /// Virtual instant at which the emulation became usable.
    pub ready_at: SimTime,
}

impl MockupMetrics {
    /// Builds from the two phase boundaries.
    #[must_use]
    pub fn from_phases(network_ready_at: SimTime, route_ready_at: SimTime, route_ops: u64) -> Self {
        let network_ready = network_ready_at.since(SimTime::ZERO);
        let route_ready = route_ready_at.since(network_ready_at);
        MockupMetrics {
            network_ready,
            route_ready,
            mockup: network_ready + route_ready,
            route_ops,
            ready_at: route_ready_at,
        }
    }
}

/// One structured entry in the recovery journal.
///
/// Every step of fault handling — injection, detection, retry, quarantine,
/// completion — emits exactly one event, so tests and benches can assert
/// recovery latency and ordering without scraping logs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JournalKind {
    /// A fault from the plan fired.
    FaultInjected {
        /// Human-readable fault description.
        fault: String,
    },
    /// The health monitor missed a VM heartbeat.
    HeartbeatMissed {
        /// VM index.
        vm: usize,
        /// Consecutive misses so far.
        consecutive: u32,
    },
    /// Misses crossed the threshold: the VM is declared dead.
    VmDeclaredDead {
        /// VM index.
        vm: usize,
    },
    /// One bounded-backoff reboot attempt.
    RebootAttempt {
        /// VM index.
        vm: usize,
        /// Attempt ordinal (1-based).
        attempt: u32,
        /// Backoff waited before this attempt.
        backoff: SimDuration,
    },
    /// Retries exhausted: the VM's sandboxes are quarantined off it.
    VmQuarantined {
        /// The dead VM's index.
        vm: usize,
        /// The spare VM index the sandboxes move to.
        spare: usize,
    },
    /// A speaker agent was restarted with a fresh incarnation epoch.
    SpeakerRestarted {
        /// The speaker device.
        device: u32,
        /// The new incarnation epoch.
        epoch: u64,
    },
    /// One transition of a link-flap burst.
    LinkFlap {
        /// The flapping link.
        link: u32,
        /// Whether this transition brought the link up.
        up: bool,
    },
    /// All of a fault's devices are booted and re-linked.
    RecoveryComplete {
        /// The recovered VM index (the spare, if quarantined).
        vm: usize,
        /// Detection + retry + re-placement latency.
        latency: SimDuration,
        /// Devices brought back.
        devices: usize,
    },
}

impl JournalKind {
    /// The run report's counter of this kind of entry.
    #[must_use]
    pub fn counter(&self) -> &'static str {
        match self {
            JournalKind::FaultInjected { .. } => "core.faults_injected",
            JournalKind::HeartbeatMissed { .. } => "core.heartbeat_misses",
            JournalKind::VmDeclaredDead { .. } => "core.vms_declared_dead",
            JournalKind::RebootAttempt { .. } => "core.reboot_attempts",
            JournalKind::VmQuarantined { .. } => "core.vms_quarantined",
            JournalKind::SpeakerRestarted { .. } => "core.speakers_restarted",
            JournalKind::LinkFlap { .. } => "core.link_flaps",
            JournalKind::RecoveryComplete { .. } => "core.recoveries",
        }
    }
}

/// A timestamped [`JournalKind`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalEvent {
    /// Virtual instant of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: JournalKind,
}

impl JournalEvent {
    /// Renders the entry as a typed telemetry event — the rows of the run
    /// report's `journal` section.
    #[must_use]
    pub fn to_event_record(&self) -> EventRecord {
        let (name, fields): (&str, Vec<(&str, FieldValue)>) = match &self.kind {
            JournalKind::FaultInjected { fault } => (
                "fault_injected",
                vec![("fault", FieldValue::Str(fault.clone()))],
            ),
            JournalKind::HeartbeatMissed { vm, consecutive } => (
                "heartbeat_missed",
                vec![
                    ("vm", FieldValue::U64(*vm as u64)),
                    ("consecutive", FieldValue::U64(u64::from(*consecutive))),
                ],
            ),
            JournalKind::VmDeclaredDead { vm } => (
                "vm_declared_dead",
                vec![("vm", FieldValue::U64(*vm as u64))],
            ),
            JournalKind::RebootAttempt {
                vm,
                attempt,
                backoff,
            } => (
                "reboot_attempt",
                vec![
                    ("vm", FieldValue::U64(*vm as u64)),
                    ("attempt", FieldValue::U64(u64::from(*attempt))),
                    ("backoff", FieldValue::Dur(*backoff)),
                ],
            ),
            JournalKind::VmQuarantined { vm, spare } => (
                "vm_quarantined",
                vec![
                    ("vm", FieldValue::U64(*vm as u64)),
                    ("spare", FieldValue::U64(*spare as u64)),
                ],
            ),
            JournalKind::SpeakerRestarted { device, epoch } => (
                "speaker_restarted",
                vec![
                    ("device", FieldValue::U64(u64::from(*device))),
                    ("epoch", FieldValue::U64(*epoch)),
                ],
            ),
            JournalKind::LinkFlap { link, up } => (
                "link_flap",
                vec![
                    ("link", FieldValue::U64(u64::from(*link))),
                    ("up", FieldValue::Bool(*up)),
                ],
            ),
            JournalKind::RecoveryComplete {
                vm,
                latency,
                devices,
            } => (
                "recovery_complete",
                vec![
                    ("vm", FieldValue::U64(*vm as u64)),
                    ("latency", FieldValue::Dur(*latency)),
                    ("devices", FieldValue::U64(*devices as u64)),
                ],
            ),
        };
        EventRecord::new(self.at, name, fields)
    }
}

/// The append-only recovery journal of one emulation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecoveryJournal {
    /// Events in emission order. Within one fault's handling the `at`
    /// stamps ascend, but a later fault's detection can predate an
    /// earlier fault's completion, so the journal is not globally
    /// time-sorted.
    pub events: Vec<JournalEvent>,
}

impl RecoveryJournal {
    /// Appends an event.
    pub fn record(&mut self, at: SimTime, kind: JournalKind) {
        self.events.push(JournalEvent { at, kind });
    }

    /// All completed recoveries as `(vm, latency, devices)`.
    #[must_use]
    pub fn recoveries(&self) -> Vec<(usize, SimDuration, usize)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                JournalKind::RecoveryComplete {
                    vm,
                    latency,
                    devices,
                } => Some((vm, latency, devices)),
                _ => None,
            })
            .collect()
    }

    /// The worst completed recovery latency, if any recovery completed.
    #[must_use]
    pub fn max_recovery_latency(&self) -> Option<SimDuration> {
        self.recoveries().iter().map(|&(_, l, _)| l).max()
    }

    /// Heartbeat misses recorded for `vm`.
    #[must_use]
    pub fn misses_for(&self, vm: usize) -> u32 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, JournalKind::HeartbeatMissed { vm: v, .. } if v == vm))
            .count() as u32
    }

    /// Whether `vm` was ever declared dead.
    #[must_use]
    pub fn declared_dead(&self, vm: usize) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, JournalKind::VmDeclaredDead { vm: v } if v == vm))
    }

    /// A globally time-sorted copy: stable merge by `at`, with emission
    /// order as the tie-break. `events` preserves raw emission order
    /// (within one fault the stamps ascend, but across overlapping faults
    /// they interleave); this is the safe surface for "last recovery" /
    /// "first miss" style reads.
    #[must_use]
    pub fn sorted(&self) -> RecoveryJournal {
        let mut events = self.events.clone();
        // Vec::sort_by_key is stable, so equal stamps keep emission order.
        events.sort_by_key(|e| e.at);
        RecoveryJournal { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_add_up() {
        let nr = SimTime::ZERO + SimDuration::from_secs(90);
        let rr = nr + SimDuration::from_mins(20);
        let m = MockupMetrics::from_phases(nr, rr, 1000);
        assert_eq!(m.network_ready, SimDuration::from_secs(90));
        assert_eq!(m.route_ready, SimDuration::from_mins(20));
        assert_eq!(
            m.mockup,
            SimDuration::from_secs(90) + SimDuration::from_mins(20)
        );
        assert_eq!(m.ready_at, rr);
    }

    #[test]
    fn journal_queries_filter_by_kind_and_vm() {
        let mut j = RecoveryJournal::default();
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        j.record(
            t(1),
            JournalKind::HeartbeatMissed {
                vm: 0,
                consecutive: 1,
            },
        );
        j.record(
            t(2),
            JournalKind::HeartbeatMissed {
                vm: 0,
                consecutive: 2,
            },
        );
        j.record(t(2), JournalKind::VmDeclaredDead { vm: 0 });
        j.record(
            t(9),
            JournalKind::RecoveryComplete {
                vm: 0,
                latency: SimDuration::from_secs(7),
                devices: 3,
            },
        );
        assert_eq!(j.misses_for(0), 2);
        assert_eq!(j.misses_for(1), 0);
        assert!(j.declared_dead(0));
        assert!(!j.declared_dead(1));
        assert_eq!(j.recoveries(), vec![(0, SimDuration::from_secs(7), 3)]);
        assert_eq!(j.max_recovery_latency(), Some(SimDuration::from_secs(7)));
    }

    #[test]
    fn sorted_is_a_stable_time_merge() {
        let mut j = RecoveryJournal::default();
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        // Overlapping faults: the second fault's detection predates the
        // first fault's completion, and two entries share a stamp.
        j.record(
            t(20),
            JournalKind::RecoveryComplete {
                vm: 0,
                latency: SimDuration::from_secs(10),
                devices: 1,
            },
        );
        j.record(
            t(5),
            JournalKind::HeartbeatMissed {
                vm: 1,
                consecutive: 1,
            },
        );
        j.record(t(5), JournalKind::VmDeclaredDead { vm: 1 });
        let s = j.sorted();
        assert_eq!(s.events.len(), 3);
        assert_eq!(s.events[0].at, t(5));
        // Stable: equal stamps keep emission order (miss before declared).
        assert!(matches!(
            s.events[0].kind,
            JournalKind::HeartbeatMissed { .. }
        ));
        assert!(matches!(
            s.events[1].kind,
            JournalKind::VmDeclaredDead { .. }
        ));
        assert_eq!(s.events[2].at, t(20));
        // The original emission order is untouched.
        assert_eq!(j.events[0].at, t(20));
    }

    #[test]
    fn journal_events_render_typed_records() {
        let ev = JournalEvent {
            at: SimTime::ZERO + SimDuration::from_secs(3),
            kind: JournalKind::RebootAttempt {
                vm: 2,
                attempt: 1,
                backoff: SimDuration::from_secs(4),
            },
        };
        let rec = ev.to_event_record();
        assert_eq!(rec.name, "reboot_attempt");
        assert_eq!(rec.field("vm"), Some(&FieldValue::U64(2)));
        assert_eq!(
            rec.field("backoff"),
            Some(&FieldValue::Dur(SimDuration::from_secs(4)))
        );
    }
}
