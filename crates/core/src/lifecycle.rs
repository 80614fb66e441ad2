//! The device lifecycle, each step written once.
//!
//! * **place** ([`Emulation::place`]) — PhyNet + sandbox containers,
//!   interfaces, bridge-setup CPU, RAM and the management edge of one
//!   device on one VM. `mockup()` places every device at `t = 0`;
//!   quarantine re-places a dead VM's devices on a spare.
//! * **wire** ([`Emulation::wire`]) — one virtual link between two placed
//!   sandboxes, tunnel CPU included. Same two callers.
//! * **isolate** ([`Emulation::isolate`]) — power off, every neighbour
//!   sees link-down: VM crash, speaker crash, speaker swap, removal.
//! * **revive** ([`Emulation::restore_devices`]) — the only place an OS
//!   is rebuilt, a speaker epoch bumped and links brought back up.
//! * **reboot-and-restore** ([`Emulation::reboot_and_restore`]) — the
//!   health monitor's successful reboot: cloud reboot, §8.3 resetup
//!   cost, revive, `RecoveryComplete`.
//!
//! `Reload`, `Connect`/`Disconnect`, `Clear` and `Destroy` (Table 2)
//! live here too: they are the operator's handles on the same lifecycle.

use crate::emulation::{Emulation, EmulationError, Sandbox, VmWorkModel};
use crate::metrics::JournalKind;
use crystalnet_config::DeviceConfig;
use crystalnet_net::{DeviceId, LinkId};
use crystalnet_routing::{BgpRouterOs, ControlPlaneSim, MgmtCommand};
use crystalnet_sim::{SimDuration, SimTime};
use crystalnet_vnet::{Cloud, ContainerKind, LinkSpan, VirtualLink};

impl Emulation {
    /// Places `dev` on VM `vm_idx`, its set-up CPU queued on `cloud`
    /// (the caller holds the fleet lock across a batch) from `at`. A
    /// device placed before moves: its sandbox record is replaced, its
    /// management edge re-homed onto the new VM's bridge and its future
    /// work queued on the new VM.
    pub(crate) fn place(&mut self, cloud: &mut Cloud, dev: DeviceId, vm_idx: usize, at: SimTime) {
        let device = self.topo.device(dev);
        let kind = self.prep.container_kind(dev);
        let engine = &mut self.engines[vm_idx];
        let phynet = engine.create(ContainerKind::PhyNet, None);
        let sandbox = engine.create(kind, Some(phynet));
        engine.add_ifaces(phynet, device.ifaces.len() as u32);
        engine.start(phynet);
        engine.start(sandbox);
        let vm_id = self.vm_ids[vm_idx];
        let vm = cloud.vm_mut(vm_id);
        // PhyNet start + per-interface veth/bridge setup.
        vm.cpu.submit(at, ContainerKind::PhyNet.start_cpu());
        for _ in 0..device.ifaces.len() {
            vm.cpu.submit(at, self.options.bridge.setup_cpu());
        }
        vm.ram_used_mb += kind.ram_mb() + ContainerKind::PhyNet.ram_mb();
        if !self.mgmt.move_device(&device.name, vm_id) {
            self.mgmt
                .register_device(vm_id, &device.name, device.mgmt_addr)
                .expect("unique production hostnames and mgmt IPs");
        }
        self.sandboxes.insert(
            dev,
            Sandbox {
                vm: vm_idx,
                phynet,
                device: sandbox,
            },
        );
        VmWorkModel::of(&mut self.sim).home_device(dev, vm_id);
    }

    /// Provisions production link `lid` between its two placed ends
    /// (VXLAN when they sit on different VMs) and tells the work model
    /// its span; `None` when an end is outside the emulation. Recording
    /// the link in `vlinks` is the caller's: `mockup()` appends, a
    /// re-placement replaces.
    pub(crate) fn wire(
        &mut self,
        cloud: &mut Cloud,
        lid: LinkId,
        at: SimTime,
    ) -> Option<VirtualLink> {
        let link = self.topo.link(lid);
        let vm_a = self.vm_ids[self.sandboxes.get(&link.a.device)?.vm];
        let vm_b = self.vm_ids[self.sandboxes.get(&link.b.device)?.vm];
        let vl = VirtualLink::provision(lid, vm_a, vm_b, false, &mut self.vnis);
        // Tunnel setup costs CPU on both hosting VMs.
        if vl.span != LinkSpan::IntraVm {
            for vm in [vm_a, vm_b] {
                cloud
                    .vm_mut(vm)
                    .cpu
                    .submit(at, self.options.bridge.setup_cpu());
            }
        }
        VmWorkModel::of(&mut self.sim).set_link_span(lid, vl.span);
        Some(vl)
    }

    /// `Disconnect`: takes a production link down in the emulation.
    pub fn disconnect(&mut self, lid: LinkId) {
        self.disconnect_at(lid, self.now());
    }

    /// `Connect`: brings a production link back up.
    pub fn connect(&mut self, lid: LinkId) {
        self.connect_at(lid, self.now());
    }

    /// Disconnects a link at an explicit future instant.
    pub fn disconnect_at(&mut self, lid: LinkId, at: SimTime) {
        let ep = ControlPlaneSim::link_endpoints(&self.topo, lid);
        self.sim.link_down(ep, at);
    }

    /// Connects a link at an explicit future instant.
    pub fn connect_at(&mut self, lid: LinkId, at: SimTime) {
        let ep = ControlPlaneSim::link_endpoints(&self.topo, lid);
        self.sim.link_up(ep, at);
    }

    /// Whether production link `lid` runs inside this emulation: it
    /// exists and both its ends are sandboxed.
    pub(crate) fn link_emulated(&self, lid: LinkId) -> bool {
        (lid.0 as usize) < self.topo.link_count() && {
            let link = self.topo.link(lid);
            self.sandboxes.contains_key(&link.a.device)
                && self.sandboxes.contains_key(&link.b.device)
        }
    }

    /// The production links attached to `dev`.
    fn links_of(&self, dev: DeviceId) -> Vec<LinkId> {
        self.topo.neighbors(dev).map(|(lid, _, _)| lid).collect()
    }

    /// Isolates `dev` at `at`: its sandbox powers off and every
    /// neighbour sees link-down.
    pub(crate) fn isolate(&mut self, dev: DeviceId, at: SimTime) {
        self.sim.power_off(dev);
        for lid in self.links_of(dev) {
            self.disconnect_at(lid, at);
        }
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

    /// The devices sandboxed on VM `vm_idx`, in id order (event
    /// scheduling must not depend on hash-map iteration order).
    pub(crate) fn devices_on(&self, vm_idx: usize) -> Vec<DeviceId> {
        let mut devs: Vec<DeviceId> = self
            .sandboxes
            .iter()
            .filter(|(_, sb)| sb.vm == vm_idx)
            .map(|(&d, _)| d)
            .collect();
        devs.sort_unstable_by_key(|d| d.0);
        devs
    }

    /// Kills every sandbox on VM `vm_idx` at `at`: the VM is marked dead
    /// and its devices are isolated. Returns the victims.
    pub(crate) fn crash_vm_devices(&mut self, vm_idx: usize, at: SimTime) -> Vec<DeviceId> {
        self.vm_down[vm_idx] = true;
        self.cloud
            .lock()
            .expect("cloud lock poisoned")
            .fail_vm(self.vm_ids[vm_idx]);
        let victims = self.devices_on(vm_idx);
        for &dev in &victims {
            self.isolate(dev, at);
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

    /// Revives `victims` at `restored_at`: fresh OS instances boot from
    /// their effective configurations (or speaker scripts, with a bumped
    /// incarnation epoch so peers resync), and their links come back.
    pub(crate) fn restore_devices(&mut self, victims: &[DeviceId], restored_at: SimTime) {
        for &dev in victims {
            if let Some(cfg) = self.effective_config(dev).cloned() {
                let profile = self.options.profile_for(&self.topo, dev);
                let os = BgpRouterOs::new(profile, cfg, self.topo.device(dev).loopback);
                self.sim.replace_os(dev, Box::new(os));
            } else if let Some(mut os) = self.prep.speaker_plan.build_os(&self.topo, dev) {
                // A swapped script survives the restart: the speaker must
                // come back announcing what `apply_change` installed, not
                // the original prepared plan.
                if let Some(scripts) = self.speaker_overrides.get(&dev) {
                    for (iface, script) in scripts {
                        os.set_script(*iface, script.clone());
                    }
                }
                // A restarted speaker must present a fresh session token,
                // or peers treat its Open as a duplicate of the live
                // session and never flush its stale routes.
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
            for lid in self.links_of(dev) {
                self.connect_at(lid, restored_at);
            }
        }
    }

    /// Revives `victims` at `restored_at` and journals the completed
    /// recovery of the fault injected at `fault_at`, against VM `vm`.
    pub(crate) fn recover(
        &mut self,
        fault_at: SimTime,
        restored_at: SimTime,
        vm: usize,
        victims: &[DeviceId],
    ) {
        self.restore_devices(victims, restored_at);
        self.journal_event(
            restored_at,
            JournalKind::RecoveryComplete {
                vm,
                latency: restored_at.since(fault_at),
                devices: victims.len(),
            },
        );
    }

    /// A reboot of dead VM `vm` issued at `when` succeeds: the VM comes
    /// back with a clean CPU queue, its sandboxes and links are re-created
    /// (the §8.3 resetup cost, which is returned) and `victims` revived.
    pub(crate) fn reboot_and_restore(
        &mut self,
        fault_at: SimTime,
        when: SimTime,
        vm: usize,
        victims: &[DeviceId],
    ) -> SimDuration {
        let vm_id = self.vm_ids[vm];
        let reboot_done = {
            let mut cloud = self.cloud.lock().expect("cloud lock poisoned");
            let done = cloud.reboot(vm_id, when);
            cloud.mark_running(vm_id, done);
            cloud.reset_cpu(vm_id, done);
            done
        };
        let recovery = self.vm_recovery_cost(victims);
        self.vm_down[vm] = false;
        self.recover(fault_at, reboot_done + recovery, vm, victims);
        recovery
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
        let now = self.now();
        self.journal_event(
            now,
            JournalKind::FaultInjected {
                fault: format!("vm {vm_idx} crash (direct injection)"),
            },
        );
        let victims = self.crash_vm_devices(vm_idx, now);
        // The health monitor notices at once and its first reboot
        // succeeds (the reboot itself is excluded from the §8.3 metric).
        self.journal_event(
            now,
            JournalKind::RebootAttempt {
                vm: vm_idx,
                attempt: 1,
                backoff: SimDuration::ZERO,
            },
        );
        Ok(self.reboot_and_restore(now, now, vm_idx, &victims))
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
        let mut cloud = self.cloud.lock().expect("cloud lock poisoned");
        let cost = cloud.cost_usd(self.now());
        cloud.destroy_all();
        cost
    }
}
