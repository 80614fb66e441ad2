//! The work model coupling device activity to VM CPU contention.

use crystalnet_net::{DeviceId, LinkId, Topology};
use crystalnet_routing::harness::{WorkKind, WorkModel};
use crystalnet_routing::ControlPlaneSim;
use crystalnet_sim::{SimDuration, SimTime};
use crystalnet_vnet::{Cloud, LinkSpan, VmId};

/// The work model coupling device activity to VM CPU contention.
///
/// Every route operation, firmware boot and frame encap queues on the
/// hosting VM's 4 cores — so denser packing (fewer VMs) slows convergence
/// and raises utilization, reproducing the Figure 8/9 relationships. The
/// model owns the cloud fleet it charges, so cloning it (as every fork
/// does) copies the fleet with it.
#[derive(Clone)]
pub struct VmWorkModel {
    pub(crate) cloud: Cloud,
    /// Indexed by [`DeviceId`].
    devices: Vec<DeviceWork>,
    /// Indexed by [`LinkId`].
    link_span: Vec<LinkSpan>,
    /// Seed for boot-latency jitter. Jitter is derived from
    /// `(seed, device, boot ordinal)` rather than drawn from a shared
    /// sequential stream, so event interleaving cannot change any
    /// device's boot time.
    jitter_seed: u64,
}

/// One device's slot in [`VmWorkModel`].
#[derive(Clone, Copy, Default)]
struct DeviceWork {
    /// The hosting VM; `None` until the device is placed.
    vm: Option<VmId>,
    /// (boot CPU, firmware boot latency, CPU per route op).
    cost: (SimDuration, SimDuration, SimDuration),
    /// Route processing inside one firmware image is single-threaded —
    /// a device's work serializes behind itself before competing for the
    /// VM's cores. This is what makes route-ready scale with fabric
    /// fan-in (the paper's L-DC bottleneck: "the major bottleneck is the
    /// convergence speed of routing algorithms", §8.2).
    busy: SimTime,
    /// Boot ordinal; a reboot draws fresh jitter.
    boot_seq: u64,
}

impl VmWorkModel {
    /// A model sized for `topo` with no device placed yet:
    /// [`Self::home_device`], [`Self::set_device_cost`] and
    /// [`Self::set_link_span`] fill it in as `mockup()` places, boots and
    /// wires.
    pub(crate) fn new(cloud: Cloud, jitter_seed: u64, topo: &Topology) -> Self {
        VmWorkModel {
            cloud,
            devices: vec![DeviceWork::default(); topo.device_count()],
            link_span: vec![LinkSpan::IntraVm; topo.link_count()],
            jitter_seed,
        }
    }

    /// The live model inside a mockup-built sim.
    pub(crate) fn of(sim: &mut ControlPlaneSim) -> &mut VmWorkModel {
        sim.engine
            .world
            .work_mut()
            .as_any_mut()
            .downcast_mut()
            .expect("mockup sims drive a VmWorkModel")
    }

    /// [`Self::of`] for reading.
    pub(crate) fn of_ref(sim: &ControlPlaneSim) -> &VmWorkModel {
        sim.engine
            .world
            .work_ref()
            .as_any()
            .downcast_ref()
            .expect("mockup sims drive a VmWorkModel")
    }

    /// ±25 % boot-latency jitter, deterministic per (device, boot ordinal).
    fn boot_jitter(&mut self, dev: DeviceId, base: SimDuration) -> SimDuration {
        let seq = &mut self.devices[dev.index()].boot_seq;
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

    /// Homes a device on a VM (placement, or quarantine re-placement):
    /// its future boot/route work queues on that VM's CPU server.
    pub(crate) fn home_device(&mut self, dev: DeviceId, vm: VmId) {
        self.devices[dev.index()].vm = Some(vm);
    }

    /// Sets a device's (boot CPU, firmware boot latency, CPU per route op).
    pub(crate) fn set_device_cost(
        &mut self,
        dev: DeviceId,
        cost: (SimDuration, SimDuration, SimDuration),
    ) {
        self.devices[dev.index()].cost = cost;
    }

    /// Sets a link's span: which VMs host its endpoints decides between
    /// intra-VM veth and inter-VM VXLAN, and re-placement changes it.
    pub(crate) fn set_link_span(&mut self, link: LinkId, span: LinkSpan) {
        self.link_span[link.index()] = span;
    }
}

impl WorkModel for VmWorkModel {
    fn completion(&mut self, dev: DeviceId, kind: WorkKind, now: SimTime) -> SimTime {
        let DeviceWork { vm, cost, busy, .. } = self.devices[dev.index()];
        let Some(vm) = vm else {
            return now;
        };
        let (boot_cpu, boot_latency, per_op) = cost;
        let jitter = match kind {
            WorkKind::Boot => self.boot_jitter(dev, boot_latency),
            WorkKind::RouteOps(_) => SimDuration::ZERO,
        };
        let start = now.max(busy);
        let cpu = &mut self.cloud.vm_mut(vm).cpu;
        let end = match kind {
            WorkKind::Boot => cpu.submit(start, boot_cpu) + jitter,
            WorkKind::RouteOps(n) => cpu.submit(start, per_op * (n as u64)),
        };
        self.devices[dev.index()].busy = end;
        end
    }

    fn link_delay(&mut self, link: LinkId, now: SimTime) -> SimDuration {
        let span = self.link_span[link.index()];
        // A per-link-constant jitter de-phases the thousands of identical
        // links without breaking a link's FIFO ordering (reordering a
        // link would let an Update overtake its session's Open, which no
        // real Ethernet link does).
        let _ = now;
        let jitter = u64::from(link.0).wrapping_mul(0x9e37_79b9) % 2_000;
        span.latency() + SimDuration::from_nanos(jitter)
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
