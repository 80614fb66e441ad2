//! The sharded executor's harness side: fork the world into per-shard
//! replicas, run them under the lookahead matrix, join them back — and
//! the critical-path diagnosis of how that run scaled.

use super::world::ShardRoute;
use super::{ControlPlaneEngine, ControlPlaneSim, ControlPlaneWorld, HarnessEvent, WorkModel};
use crate::os::MgmtResponse;
use crystalnet_net::{DeviceId, Partition};
use crystalnet_sim::parallel::{
    run_shards_until_quiet_matrix_profiled, GrantRecord, Limiter, LookaheadMatrix, ParallelProfile,
};
use crystalnet_sim::{Engine, SimDuration, SimTime};
use crystalnet_telemetry::profile::keys;
use crystalnet_telemetry::{BlameBreakdown, CriticalLink, ScalingDiagnosis, ShardLoad};
use std::collections::HashMap;
use std::time::Instant;

impl ControlPlaneSim {
    /// [`Self::run_until_quiet`] on worker threads: forks the world into
    /// per-shard replicas, steps them concurrently inside conservative
    /// per-shard windows (each shard bounded by the per-shard-pair
    /// lookahead matrix over its *actual* cut links, not a global
    /// min-cut scalar), and joins the shards back into this sim.
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
    /// # Panics
    ///
    /// Panics if `shard_work.len() != partition.shard_count()` or the
    /// partition does not cover this topology.
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
        if self.engine.now() > deadline {
            // The serial loop bails before touching the queue; so do we.
            return (None, shard_work);
        }
        let profiling = self.engine.world.recorder.profiling_enabled();
        let t_all = profiling.then(Instant::now);

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
        let t_fork = profiling.then(Instant::now);
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
                    // Device-keyed plane state travels with its owner's
                    // shard, so rolling windows and gauges continue
                    // across the fork.
                    planes: world
                        .planes
                        .fork_for_shard(|d| partition.shard_of[d.index()] == s),
                    fwd_disabled: world.fwd_disabled.clone(),
                    recorder: world.recorder.fork(),
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
        // is global wiring, plane ticks sample everywhere) are replayed by
        // every shard.
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

        if let Some(t0) = t_fork {
            self.engine
                .world
                .recorder
                .profile_add(keys::PARALLEL_FORK, t0.elapsed().as_nanos() as u64);
        }

        let t_run = profiling.then(Instant::now);
        let mut outcome =
            run_shards_until_quiet_matrix_profiled(engines, &lookahead, quiet, deadline, profiling);
        if let Some(t0) = t_run {
            self.engine
                .world
                .recorder
                .profile_add(keys::PARALLEL_RUN, t0.elapsed().as_nanos() as u64);
        }

        // ---- Join: merge shard state back into the serial world. ----
        let t_join = profiling.then(Instant::now);
        let mut shard_models: Vec<Box<dyn WorkModel>> = Vec::with_capacity(k);
        let mut crashes: Vec<(SimTime, DeviceId)> = Vec::new();
        let mut responses: Vec<(DeviceId, MgmtResponse)> = Vec::new();
        let mut remaining: Vec<(SimTime, HarnessEvent)> = Vec::new();
        let mut shard_executed: Vec<u64> = Vec::with_capacity(k);
        let mut shard_queue_high: Vec<u64> = Vec::with_capacity(k);
        for (s, mut eng) in outcome.shards.into_iter().enumerate() {
            shard_executed.push(eng.events_executed());
            shard_queue_high.push(eng.queue_high_water() as u64);
            let drained = eng.drain_pending();
            let mut sw = eng.world;
            let world = &mut self.engine.world;
            // Canonical shard metrics merge order-independently; the
            // per-shard execution-shape facts go in as diagnostics.
            world.recorder.absorb(sw.recorder);
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
            world.planes.absorb_shard(sw.planes);
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
        if self.engine.world.recorder.enabled() {
            let rec = &mut *self.engine.world.recorder;
            rec.diagnostic_add("sim.parallel.windows".to_string(), outcome.windows);
            rec.diagnostic_add(
                "sim.parallel.lockstep_rounds".to_string(),
                outcome.lockstep_rounds,
            );
            rec.diagnostic_add(
                "sim.parallel.horizon_advances".to_string(),
                outcome.horizon_advances,
            );
            // Events-per-window histogram (power-of-two buckets) plus
            // per-shard execution-shape arrays: the facts needed to
            // diagnose a scaling regression from `pull_report()` without
            // bisection. Idle time is wall-clock, hence nondeterministic
            // — diagnostics only, never the canonical report. The arrays
            // describe the most recent parallel run in this report.
            let hist = &outcome.window_hist;
            rec.diagnostic_add("sim.parallel.window_events.count".to_string(), hist.count);
            rec.diagnostic_add("sim.parallel.window_events.sum".to_string(), hist.sum);
            rec.diagnostic_max("sim.parallel.window_events.max".to_string(), hist.max);
            for (b, &n) in hist.buckets.iter().enumerate() {
                if n > 0 {
                    rec.diagnostic_add(format!("sim.parallel.window_events.bucket{b}"), n);
                }
            }
            rec.diagnostic_array(
                "sim.parallel.shard.events_executed".to_string(),
                shard_executed.clone(),
            );
            rec.diagnostic_array(
                "sim.parallel.shard.queue_high_water".to_string(),
                shard_queue_high,
            );
            rec.diagnostic_array(
                "sim.parallel.shard.idle_ns".to_string(),
                outcome.idle_ns.clone(),
            );
        }
        if let Some(profile) = outcome.profile.take() {
            let rec = &mut *self.engine.world.recorder;
            rec.profile_add(keys::PARALLEL_COMPUTE, profile.busy_ns.iter().sum());
            rec.profile_add(keys::PARALLEL_MERGE, profile.merge_ns);
            rec.profile_add(keys::PARALLEL_IDLE, outcome.idle_ns.iter().sum());
            rec.scaling_diagnosis(diagnose_scaling(
                &profile,
                &outcome.idle_ns,
                &shard_executed,
            ));
        }
        if let Some(t0) = t_join {
            self.engine
                .world
                .recorder
                .profile_add(keys::PARALLEL_JOIN, t0.elapsed().as_nanos() as u64);
        }
        if let Some(t0) = t_all {
            self.engine
                .world
                .recorder
                .profile_add(keys::PARALLEL, t0.elapsed().as_nanos() as u64);
        }

        (outcome.converged_at, shard_models)
    }
}

/// Stable export label for a grant's limiter.
fn limiter_label(l: Limiter) -> String {
    match l {
        Limiter::Echo => "echo".to_string(),
        Limiter::Peer(j) => format!("peer:{j}"),
        Limiter::QuietClip => "quiet-clip".to_string(),
        Limiter::DeadlineClip => "deadline-clip".to_string(),
        Limiter::Lockstep => "lockstep".to_string(),
        Limiter::Deliver => "deliver".to_string(),
    }
}

/// Grant-kind label (`window`, `deliver`, `step`) for exports.
fn grant_kind(l: Limiter) -> &'static str {
    match l {
        Limiter::Lockstep => "step",
        Limiter::Deliver => "deliver",
        _ => "window",
    }
}

/// Reconstructs the chain of grants that bounded run completion and
/// classifies each straggler interval.
///
/// Walking back from the last grant to finish, the predecessor of a
/// grant is the latest grant that completed before it was issued — the
/// command whose reply the coordinator had to fold in before this one
/// could go out. Time *inside* a grant is blamed on its limiter
/// (a peer bound ⇒ lookahead-starved, otherwise work-bound); the gap
/// between a predecessor's completion and the successor's issue is
/// coordinator-side merging ⇒ merge-bound. All wall-clock, hence
/// nondeterministic: full-report diagnostics only.
fn diagnose_scaling(
    profile: &ParallelProfile,
    idle_ns: &[u64],
    shard_executed: &[u64],
) -> ScalingDiagnosis {
    let grants = &profile.grants;
    // Walk the chain back from the last completion.
    let mut chain: Vec<&GrantRecord> = Vec::new();
    let mut cur = grants.iter().max_by_key(|g| g.done_ns);
    while let Some(g) = cur {
        chain.push(g);
        cur = grants
            .iter()
            .filter(|p| p.done_ns <= g.issue_ns)
            .max_by_key(|p| p.done_ns);
    }
    chain.reverse();

    // Blame totals over the whole chain (even the links the export cap
    // drops), so the breakdown always accounts for the full path.
    let mut blame = BlameBreakdown::default();
    let mut prev_done: Option<u64> = None;
    let mut links: Vec<CriticalLink> = Vec::with_capacity(chain.len());
    for g in &chain {
        let exec = g.done_ns.saturating_sub(g.issue_ns);
        let gap = prev_done.map_or(0, |d| g.issue_ns.saturating_sub(d));
        blame.merge_bound_ns += gap;
        let starved = matches!(g.limiter, Limiter::Peer(_));
        if starved {
            blame.lookahead_starved_ns += exec;
        } else {
            blame.work_bound_ns += exec;
        }
        let label = if starved {
            "lookahead-starved"
        } else if gap > exec {
            "merge-bound"
        } else {
            "work-bound"
        };
        links.push(CriticalLink {
            shard: g.shard as u32,
            kind: grant_kind(g.limiter).to_string(),
            limiter: limiter_label(g.limiter),
            start_ns: g.issue_ns,
            end_ns: g.done_ns,
            executed: g.executed,
            blame: label.to_string(),
        });
        prev_done = Some(g.done_ns);
    }
    // Keep the links nearest completion when the chain is long.
    if links.len() > ScalingDiagnosis::CRITICAL_PATH_CAP {
        links.drain(..links.len() - ScalingDiagnosis::CRITICAL_PATH_CAP);
    }

    let k = profile.busy_ns.len();
    let per_shard = (0..k)
        .map(|s| ShardLoad {
            shard: s as u32,
            grants: grants.iter().filter(|g| g.shard == s).count() as u64,
            executed: shard_executed.get(s).copied().unwrap_or(0),
            busy_ns: profile.busy_ns[s],
            idle_ns: idle_ns.get(s).copied().unwrap_or(0),
        })
        .collect();

    ScalingDiagnosis {
        shards: k as u32,
        run_wall_ns: profile.run_wall_ns,
        compute_ns: profile.busy_ns.iter().sum(),
        merge_ns: profile.merge_ns,
        idle_ns: idle_ns.iter().sum(),
        grants: grants.len() as u64,
        blame,
        critical_path: links,
        per_shard,
    }
}
