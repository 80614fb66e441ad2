//! The sharded executor's harness side: fork the world into per-shard
//! replicas, run them under the lookahead matrix, join them back.

use super::world::ShardRoute;
use super::{ControlPlaneEngine, ControlPlaneSim, ControlPlaneWorld, HarnessEvent, WorkModel};
use crate::os::MgmtResponse;
use crate::plane::Planes;
use crystalnet_net::{DeviceId, Partition};
use crystalnet_sim::parallel::{run_shards_until_quiet_matrix, LookaheadMatrix};
use crystalnet_sim::{Engine, SimDuration, SimTime};
use crystalnet_telemetry::profile::keys;
use std::collections::HashMap;

impl ControlPlaneSim {
    /// [`Self::run_until_quiet`] on worker threads, for a bare
    /// control-plane settle: forks the world into per-shard replicas,
    /// steps them concurrently inside conservative per-shard windows
    /// (each shard bounded by the per-shard-pair lookahead matrix over
    /// its *actual* cut links, not a global min-cut scalar), and joins
    /// the shards back into this sim. Its one caller outside this
    /// crate's tests is the benchmark's `sim.parallel.*` probe.
    ///
    /// The result is **bit-identical** to the serial run — same FIBs, same
    /// route-ready instant, same counters — because harness event keys
    /// totally order same-time events and frames can never cross a shard
    /// boundary in less than the cut-link latency. Two caveats: entries in
    /// [`ControlPlaneWorld::crashes`] are merged sorted by `(time,
    /// device)` and [`ControlPlaneWorld::mgmt_responses`] by device (the
    /// serial orders interleave same-time entries by event key, which the
    /// merge does not reconstruct), and on deadline overrun (`None`)
    /// shards may have processed a handful of events past the deadline
    /// that the serial loop would have left queued.
    ///
    /// `shard_work` supplies one [`WorkModel`] per shard (the serial
    /// model stays untouched); they are returned for the orchestrator to
    /// fold accumulated state (e.g. CPU-queue depths) back in.
    /// Cross-shard lookahead is probed from the *serial* model's
    /// [`WorkModel::link_delay`] over each cut link — the minimum per
    /// ordered shard pair, ∞ where no link crosses — so per-link delays
    /// must be time-invariant lower bounds and identical across the
    /// serial and shard models.
    ///
    /// A profiling recorder gets the workers' summed busy and idle wall
    /// time under [`keys::PARALLEL_COMPUTE`] and [`keys::PARALLEL_IDLE`];
    /// its counters merge back from per-shard forks
    /// ([`MemRecorder::fork`](crystalnet_telemetry::MemRecorder::fork),
    /// [`MemRecorder::absorb`](crystalnet_telemetry::MemRecorder::absorb)).
    ///
    /// # Panics
    ///
    /// Panics if `shard_work.len() != partition.shard_count()` or the
    /// partition does not cover this topology, and — because the shards
    /// carry neither — if a packet-walk plane is enabled
    /// ([`Self::enable_health`], [`Self::enable_traffic`]) or the
    /// recorder has a causal-trace sink.
    pub fn run_until_quiet_parallel(
        &mut self,
        quiet: SimDuration,
        deadline: SimTime,
        partition: &Partition,
        shard_work: Vec<Box<dyn WorkModel>>,
    ) -> (Option<SimTime>, Vec<Box<dyn WorkModel>>) {
        let k = partition.shard_count();
        assert_eq!(shard_work.len(), k, "one work model per shard");
        let n = self.engine.world.oses.len();
        assert_eq!(partition.shard_of.len(), n, "partition/topology mismatch");
        let planes = &self.engine.world.planes;
        assert!(
            planes.health.is_none() && planes.traffic.is_none(),
            "the sharded settle runs without packet-walk planes"
        );
        assert!(
            !self.engine.world.recorder.trace_enabled(),
            "the sharded settle runs without a causal-trace sink"
        );
        if self.engine.now() > deadline {
            // The serial loop bails before touching the queue; so do we.
            return (None, shard_work);
        }

        // Per-pair conservative lookahead: no frame crosses from shard i
        // to shard j faster than their cheapest connecting cut link;
        // pairs sharing no edge do not bound each other at all. The
        // matrix is derived from the adjacency table (the same link set
        // `Partition::lookahead_matrix_nanos` walks).
        let now = self.engine.now();
        let mut direct = vec![u64::MAX; k * k];
        for i in 0..k {
            direct[i * k + i] = 0;
        }
        {
            let world = &mut self.engine.world;
            for dev in 0..n {
                let si = partition.shard_of[dev];
                for adj in world.adjacency[dev].iter().flatten() {
                    let sj = partition.shard_of[adj.remote_dev.index()];
                    if si == sj {
                        continue;
                    }
                    let link = adj.link;
                    let d = world.work.link_delay(link, now).as_nanos().max(1);
                    let e = &mut direct[si * k + sj];
                    *e = (*e).min(d);
                }
            }
        }
        let lookahead = LookaheadMatrix::from_nanos(k, direct);

        // ---- Fork: one world replica per shard. ----
        let pending = self.engine.drain_pending();
        let world = &mut self.engine.world;
        let mut engines: Vec<ControlPlaneEngine> = shard_work
            .into_iter()
            .enumerate()
            .map(|(s, work)| {
                Engine::new(ControlPlaneWorld {
                    oses: (0..n).map(|_| None).collect(),
                    booted: world.booted.clone(),
                    adjacency: world.adjacency.clone(),
                    link_up: world.link_up.clone(),
                    work,
                    last_route_activity: world.last_route_activity,
                    route_ops_total: 0,
                    route_ops_by_dev: HashMap::new(),
                    crashes: Vec::new(),
                    mgmt_responses: Vec::new(),
                    causal_pending: 0,
                    dev_key_seq: world.dev_key_seq.clone(),
                    control_key_seq: world.control_key_seq,
                    shard_route: Some(ShardRoute {
                        self_shard: s,
                        shard_of: partition.shard_of.clone(),
                        outbox: Vec::new(),
                    }),
                    planes: Planes::default(),
                    fwd_disabled: world.fwd_disabled.clone(),
                    recorder: Box::new(world.recorder.fork()),
                })
            })
            .collect();
        // OS instances move to their owning shard's worker thread: the
        // handle travels, so an OS a fork still shares comes back the
        // same instance unless its shard wrote to it.
        for dev in 0..n {
            if let Some(os) = world.oses[dev].take() {
                engines[partition.shard_of[dev]].world.oses[dev] = Some(os);
            }
        }
        // Device-targeted events go to the owner; broadcasts (link state
        // is global wiring) are replayed by every shard.
        for (t, ev) in pending {
            match ev.target_device() {
                Some(dev) => {
                    let eng = &mut engines[partition.shard_of[dev.index()]];
                    eng.world.causal_pending += u64::from(ev.is_causal());
                    eng.schedule_event_at(t, ev);
                }
                None => {
                    for eng in &mut engines {
                        eng.world.causal_pending += u64::from(ev.is_causal());
                        eng.schedule_event_at(t, ev.clone());
                    }
                }
            }
        }

        let outcome = run_shards_until_quiet_matrix(engines, &lookahead, quiet, deadline);

        // ---- Join: merge shard state back into the serial world. ----
        let mut shard_models: Vec<Box<dyn WorkModel>> = Vec::with_capacity(k);
        let mut crashes: Vec<(SimTime, DeviceId)> = Vec::new();
        let mut responses: Vec<(DeviceId, MgmtResponse)> = Vec::new();
        let mut remaining: Vec<(SimTime, HarnessEvent)> = Vec::new();
        for (s, mut eng) in outcome.shards.into_iter().enumerate() {
            let drained = eng.drain_pending();
            let mut sw = eng.world;
            let world = &mut self.engine.world;
            // Shard metrics merge order-independently.
            world.recorder.absorb(*sw.recorder);
            for &dev in &partition.shards[s] {
                let i = dev.index();
                world.oses[i] = sw.oses[i].take();
                world.booted[i] = sw.booted[i];
                world.dev_key_seq[i] = sw.dev_key_seq[i];
                if let Some(ops) = sw.route_ops_by_dev.get(&dev) {
                    *world.route_ops_by_dev.entry(dev).or_insert(0) += ops;
                }
            }
            world.route_ops_total += sw.route_ops_total;
            world.last_route_activity = world.last_route_activity.max(sw.last_route_activity);
            // Every shard replayed the same link-state history.
            world.link_up = sw.link_up;
            crashes.extend(sw.crashes);
            responses.extend(sw.mgmt_responses);
            // Broadcast events survive in every shard queue; keep one copy.
            for (t, ev) in drained {
                if s == 0 || ev.target_device().is_some() {
                    remaining.push((t, ev));
                }
            }
            shard_models.push(sw.work);
        }
        crashes.sort_by_key(|&(t, d)| (t, d.0));
        self.engine.world.crashes.extend(crashes);
        responses.sort_by_key(|r| (r.0).0);
        self.engine.world.mgmt_responses.extend(responses);

        // Fast-forward the serial clock, then restore surviving events
        // (far-future timers and the like) and their causal accounting.
        self.engine.advance_clock_to(outcome.clock);
        remaining.sort_by_key(|(t, ev)| (*t, ev.key));
        let mut causal = 0u64;
        for (t, ev) in remaining {
            causal += u64::from(ev.is_causal());
            self.engine.schedule_event_at(t, ev);
        }
        self.engine.world.causal_pending = causal;
        let rec = &mut *self.engine.world.recorder;
        if rec.profiling_enabled() {
            rec.profile_add(keys::PARALLEL_COMPUTE, outcome.busy_ns.iter().sum());
            rec.profile_add(keys::PARALLEL_IDLE, outcome.idle_ns.iter().sum());
        }

        (outcome.converged_at, shard_models)
    }
}
