//! Copy-on-write emulation forks: the session-oriented rehearsal API.
//!
//! The Fig. 3 validation loop wants *many* candidate operations checked
//! against one faithfully emulated network. Mutating the single warm
//! [`Emulation`] in place would mean a fresh mockup per what-if plan —
//! the §8.2 cost incremental validation exists to avoid — and a
//! hand-written undo per step. So a staged operation reaches an
//! emulation through a session, and only through one:
//!
//! ```text
//! let fork = emu.fork();          // cheap deep fork of the converged baseline
//! fork.apply(&changes)?;          // rehearse a ChangeSet on the child …
//! fork.run_tools("drain", |e| …)?; // … or the operators' own tooling
//! fork.diff_against_parent();     // what moved, relative to the baseline
//! fork.commit(&mut emu);          // adopt — or just drop the fork to roll back
//! ```
//!
//! A fork is **independent**: whatever either side does next, the other
//! never sees it. It is a `Clone` of the [`Emulation`], so the small
//! mutable layers (event-queue residue, the cloud fleet inside the work
//! model, telemetry, wiring) are copied at the fork. The large one is
//! not: every device OS stays *one instance*, held by parent and
//! child behind an `Arc`, until one side is about to write to it — then
//! that side, and only that side, copies it first. The `Arc<PrepareOutput>`
//! spine, the topology and the hash-consed
//! `Arc<PathAttrs>`/`Arc<Provenance>` route entries are shared for good.
//! So a fork costs a few milliseconds whatever the fabric's size, a
//! rehearsal's time and memory follow the devices the change *touches*
//! (one for an ACL edit, ~70 of 504 for a leaf uplink drain on M-DC,
//! nearly all for a new prefix), and forks stay `Send`: N rehearsals can
//! run on N worker threads off one warm baseline.
//!
//! Sharing is also what makes the diff cheap. The session keeps the
//! fork-point OS handles as its base; a device whose handle is still
//! the same `Arc` has provably not been written to, so
//! [`EmulationFork::diff_against_parent`] skips it and compares tables
//! only where something happened. The base keeps the fork-point
//! instances alive, so the parent may move on (commit a sibling,
//! `disconnect`, `settle`) without disturbing a live fork or its diff.
//!
//! A fork is **exact**: the engine's clock, scheduling sequence, and
//! every queued event's `(time, key, seq)` rank are replicated, so a
//! change set applied on the fork converges bit-identically to the same
//! set applied in place. [`Emulation::rehearse`] (the Fig. 3 loop) is a
//! fork per step — commit on pass, drop on fail — and the warm≡cold
//! differential proofs hold unchanged.
//!
//! Dropping a fork *is* the rollback — there is no undo log to replay
//! and no revert closure to write.

use crate::emulation::{Emulation, EmulationError};
use crate::faults::{FaultPlan, FaultReport};
use crate::inspect::add_device_mem;
use crate::rehearse::{diff_devices, ConvergenceDelta, FibChange, Injected, OsHandles};
use crystalnet_config::ChangeSet;
use crystalnet_net::DeviceId;
use crystalnet_sim::SimTime;
use crystalnet_telemetry::{CowStats, DeviceMemTotals};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a fork captured from its parent, summarized.
///
/// The snapshot records the fork point — virtual time, queue residue,
/// RNG/epoch state — and holds the parent's OS instances of that
/// instant as the anchor for [`EmulationFork::diff_against_parent`]:
/// handles, not copies, which keep those instances alive and unchanged
/// however parent and child move on. The *live* state (sessions, cloud,
/// the OSes either side has since written to) lives in the emulations
/// themselves; this struct is the stable, inspectable description of
/// where the fork branched.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Virtual time at the fork point.
    pub at: SimTime,
    /// Devices emulated at the fork point.
    pub devices: usize,
    /// Total installed FIB prefixes across those devices.
    pub fib_entries: usize,
    /// Total Loc-RIB prefixes across those devices.
    pub rib_entries: usize,
    /// Event-queue residue carried into the fork (pending events —
    /// typically protocol timers on a quiescent baseline).
    pub pending_events: usize,
    /// Events the parent had executed when the fork was taken (the
    /// fork's engine resumes from exactly this position).
    pub events_executed: u64,
    /// Speaker incarnation epochs at the fork point, in device order.
    pub speaker_epochs: BTreeMap<DeviceId, u64>,
    /// The run seed (boot/provisioning jitter derive from it).
    pub seed: u64,
    /// Per-device OS instances at the fork point — the diff anchor.
    pub(crate) oses: OsHandles,
}

impl Snapshot {
    /// One-line human summary for rehearsal logs.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "fork point at {:?}: {} device(s), {} FIB entries, {} pending event(s)",
            self.at, self.devices, self.fib_entries, self.pending_events
        )
    }
}

impl Emulation {
    /// Captures a [`Snapshot`] of the converged state: every device's
    /// OS instance (by handle), the queue residue, and the epoch/RNG
    /// position a fork would branch from.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let oses = self.os_handles();
        let (mut rib_entries, mut fib_entries) = (0, 0);
        for os in oses.values() {
            rib_entries += os.rib_size();
            fib_entries += os.fib().len();
        }
        Snapshot {
            at: self.now(),
            devices: self.sandboxes.len(),
            fib_entries,
            rib_entries,
            pending_events: self.sim.engine.events_pending(),
            events_executed: self.sim.engine.events_executed(),
            speaker_epochs: self.speaker_epochs.clone(),
            seed: self.options.seed,
            oses,
        }
    }

    /// Forks the emulation: an independent child branched from the
    /// current converged state, wrapped in a rehearsal session.
    ///
    /// The child shares every device OS with `self` until one of the two
    /// writes to it (the writer copies first), plus the
    /// `Arc<PrepareOutput>` spine and the interned route state for good,
    /// so changes and faults applied to it never perturb `self` and the
    /// fork itself costs milliseconds. Take as many forks as you like —
    /// each is `Send` and can rehearse on its own worker thread.
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
    /// let mut emu = mockup(Arc::new(prep), MockupOptions::builder().build());
    /// let lid = f.topo.links().next().map(|(lid, _)| lid).unwrap();
    ///
    /// // Rehearse a drain on a fork; the baseline stays warm and clean.
    /// let mut fork = emu.fork();
    /// let delta = fork.apply(&ChangeSet::new().link_down(lid))?;
    /// assert!(delta.total_fib_changes() > 0);
    /// assert_eq!(fork.diff_against_parent().len(),
    ///            fork.deltas()[0].fib_changes.len());
    ///
    /// drop(fork); // not convinced — rollback is just dropping the fork
    /// assert_eq!(emu.snapshot().fib_entries, emu.fork().base().fib_entries);
    /// # Ok::<(), EmulationError>(())
    /// ```
    #[must_use]
    pub fn fork(&self) -> EmulationFork {
        EmulationFork {
            base: self.snapshot(),
            child: self.fork_emulation(),
            deltas: Vec::new(),
        }
    }
}

/// A rehearsal session: one forked child plus the snapshot it branched
/// from.
///
/// Apply [`ChangeSet`]s and [`FaultPlan`]s to the child, inspect the
/// cumulative [`EmulationFork::diff_against_parent`], then either
/// [`commit`](EmulationFork::commit) the child over the parent or drop
/// the session to discard every step (drop ≡ rollback).
pub struct EmulationFork {
    child: Emulation,
    base: Snapshot,
    deltas: Vec<ConvergenceDelta>,
}

impl EmulationFork {
    /// Applies a change set to the forked child and re-converges it
    /// incrementally.
    ///
    /// # Errors
    ///
    /// Unknown targets (including a device the set itself removed
    /// earlier), reachability guards, [`EmulationError::NotConverged`].
    /// The whole set validates before anything mutates, so the fork
    /// stays usable after a validation error, and the parent is
    /// untouched in every case.
    pub fn apply(&mut self, changes: &ChangeSet) -> Result<ConvergenceDelta, EmulationError> {
        self.step(|child| child.inject_changes(changes))
    }

    /// Runs operator tooling against the forked child — `tools` drives
    /// it through [`Emulation::login_and_run`], the paper's `Login` door
    /// — and measures the step exactly like [`Self::apply`]: same
    /// re-convergence, FIB diff, probe / flow / incident impact,
    /// `apply_change` span, and a change-log entry `tools run: <label>`.
    /// A closure declares nothing, so the delta's `applied` and `dirty`
    /// are empty; `fib_changes` is authoritative as ever.
    ///
    /// # Errors
    ///
    /// Whatever `tools` answers, or [`EmulationError::NotConverged`].
    /// Tools may have run half-way by then: drop the fork.
    pub fn run_tools(
        &mut self,
        label: &str,
        tools: impl FnOnce(&mut Emulation) -> Result<(), EmulationError>,
    ) -> Result<ConvergenceDelta, EmulationError> {
        self.step(|child| {
            tools(child)?;
            Ok(Injected {
                log: Some(format!("tools run: {label}")),
                did_work: true,
                ..Injected::default()
            })
        })
    }

    /// One measured step on the child, its delta kept for [`Self::deltas`].
    fn step(
        &mut self,
        inject: impl FnOnce(&mut Emulation) -> Result<Injected, EmulationError>,
    ) -> Result<ConvergenceDelta, EmulationError> {
        let delta = self.child.measure_step(inject)?;
        self.deltas.push(delta.clone());
        Ok(delta)
    }

    /// Injects a fault plan into the forked child (VM crashes, link-flap
    /// bursts, speaker crashes, delayed heartbeats) and lets its health
    /// monitor recover — without the parent ever noticing.
    ///
    /// # Errors
    ///
    /// Whatever [`Emulation::run_fault_plan`] answers — typically
    /// [`EmulationError::NotConverged`] when recovery misses the
    /// deadline.
    pub fn inject_faults(&mut self, plan: &FaultPlan) -> Result<FaultReport, EmulationError> {
        self.child.run_fault_plan(plan)
    }

    /// Diffs the child's *current* FIBs against the parent's at the fork
    /// point: the cumulative blast radius of every step applied so far,
    /// per device, prefix-sorted. Devices with no mutations are omitted;
    /// devices the child never wrote to are not even looked at.
    #[must_use]
    pub fn diff_against_parent(&self) -> BTreeMap<DeviceId, Vec<FibChange>> {
        diff_devices(&self.base.oses, &self.child.sim)
    }

    /// The snapshot this session branched from.
    #[must_use]
    pub fn base(&self) -> &Snapshot {
        &self.base
    }

    /// The per-step deltas of every successful [`EmulationFork::apply`]
    /// and [`EmulationFork::run_tools`], in application order.
    #[must_use]
    pub fn deltas(&self) -> &[ConvergenceDelta] {
        &self.deltas
    }

    /// Read access to the forked child (pull reports, traces, states —
    /// the whole monitor surface works on it).
    #[must_use]
    pub fn emulation(&self) -> &Emulation {
        &self.child
    }

    /// Mutable access to the forked child, for control-surface calls the
    /// session does not wrap (packet injection, `login_and_run`, …).
    pub fn emulation_mut(&mut self) -> &mut Emulation {
        &mut self.child
    }

    /// The fork's copy-on-write sharing as it stands now: estimated
    /// RIB + FIB bytes of the devices the child still shares with its
    /// base (the same OS instance) versus those of the devices it has
    /// copied since. All shared right after [`Emulation::fork`]; the
    /// copied side grows as steps touch devices. The split is by
    /// identity; the bytes are the memory section's entry counts ×
    /// struct-size estimates. Computed on demand, so an unused fork
    /// costs nothing extra.
    #[must_use]
    pub fn cow_stats(&self) -> CowStats {
        let (mut shared, mut copied) = (DeviceMemTotals::default(), DeviceMemTotals::default());
        for &dev in self.child.sandboxes.keys() {
            let Some(os) = self.child.sim.os_handle(dev) else {
                continue;
            };
            let is_shared = self.base.oses.get(&dev).is_some_and(|b| Arc::ptr_eq(b, os));
            let side = if is_shared { &mut shared } else { &mut copied };
            add_device_mem(side, dev, &**os);
        }
        CowStats {
            shared_bytes: shared.rib_bytes + shared.fib_bytes,
            copied_bytes: copied.rib_bytes + copied.fib_bytes,
        }
    }

    /// [`Emulation::pull_report`] on the forked child, with the memory
    /// section's `fork_cow` block filled in (profiling runs only).
    #[must_use]
    pub fn pull_report(&self) -> crystalnet_telemetry::RunReport {
        let mut report = self.child.pull_report();
        if let Some(memory) = report.memory.as_mut() {
            memory.fork_cow = Some(self.cow_stats());
        }
        report
    }

    /// Commits the session: the parent *becomes* the child, adopting
    /// every applied step. Returns the per-step deltas.
    ///
    /// Commit targets the emulation the fork came from; committing over
    /// an unrelated emulation is not detected (the child simply replaces
    /// it wholesale).
    pub fn commit(self, parent: &mut Emulation) -> Vec<ConvergenceDelta> {
        *parent = self.child;
        self.deltas
    }

    /// Unwraps the session into the bare child emulation (for promoting
    /// a fork to a standalone baseline instead of committing it back).
    #[must_use]
    pub fn into_emulation(self) -> Emulation {
        self.child
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compile-time `Send` audit: forks must be movable to worker
    /// threads, which is the whole point of the `Rc` → `Arc` spine
    /// conversion.
    #[test]
    fn forks_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Emulation>();
        assert_send::<EmulationFork>();
        assert_send::<Snapshot>();
        // What parent and forks share has to cross threads with them.
        assert_send::<Arc<dyn crystalnet_routing::DeviceOs>>();
    }
}
