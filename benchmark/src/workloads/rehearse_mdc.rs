//! `rehearse_mdc`: what an operator does all day once a baseline is
//! warm — fork the converged M-DC, apply a change, read the blast
//! radius, drop the fork.
//!
//! `core::session` (the copy-on-write replica of the engine and every
//! device OS), `core::rehearse` (dirty region, full-scope FIB snapshots
//! and their diff) dominate. BGP does little on `config_acl` and
//! `link_down` and a lot on `config_update`, so a fork/diff gain and a
//! BGP gain move different rows of the same workload; a `core::session`
//! gain moves only this workload. The set-up is one warm mockup, so a
//! BGP gain also shows in this workload's `setup_s`.

use super::{
    baseline_layers, cpu_seconds, fib_digest, options, passes, prepare_whole, Checks, Outcome,
    Params,
};
use crate::inputs::{rehearsals, ChangeKind, Rehearsal};
use crate::spans::Tracer;
use crate::stats::median;
use crystalnet::prelude::*;
use std::time::Instant;

/// Passes of a run of the contract's length; one takes 5 to 6 s on the
/// 2-core sandbox. Odd, so the median is a pass and one slow pass drops
/// out.
const PASSES: usize = 3;
/// Seeded targets per change kind; a pass is `4 × TARGETS` rehearsals.
const TARGETS: usize = 1;

/// What one rehearsal must reproduce in every pass.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Facts {
    dirty: usize,
    dirty_hit: usize,
    fib_changes: usize,
    events: u64,
    virtual_ns: u64,
}

/// Wall milliseconds of the four calls of one rehearsal.
struct Timing {
    kind: ChangeKind,
    fork: f64,
    apply: f64,
    diff: f64,
    drop: f64,
}

/// Runs the workload.
#[must_use]
pub fn run(p: Params) -> Outcome {
    let mut tracer = Tracer::new(p.trace);
    let mut checks = Checks::default();

    // Set-up: the warm baseline and one discarded rehearsal (the first
    // fork and the first apply pay first-touch costs later ones do not).
    let t_setup = cpu_seconds();
    let clos = ClosParams::m_dc().build();
    let prep = prepare_whole(&clos);
    let warm = mockup(Arc::clone(&prep), options(p.seed).build());
    let plan = rehearsals(&clos, &prep.configs, p.seed, TARGETS);
    let t_first = Instant::now();
    let mut first_fork = warm.fork();
    let fork_first_ms = t_first.elapsed().as_secs_f64() * 1e3;
    let cow_shared_share = first_fork.cow_stats().sharing_ratio();
    let warmed = first_fork.apply(&plan[0].changes);
    checks.check(warmed.is_ok(), || {
        format!("warm-up apply failed: {warmed:?}")
    });
    drop(first_fork);
    let setup_s = vec![cpu_seconds() - t_setup];

    let parent_digest = fib_digest(&warm);

    let r = passes(p.length, PASSES);
    let mut pass_wall_s = Vec::with_capacity(r);
    let mut pass_cpu_s = Vec::with_capacity(r);
    let mut timings: Vec<Timing> = Vec::new();
    let mut first_pass: Vec<Facts> = Vec::new();
    for pass in 0..r {
        let (mut wall, mut cpu) = (0.0, 0.0);
        for (i, step) in plan.iter().enumerate() {
            tracer.next_op();
            let (cpu_before, began) = (cpu_seconds(), Instant::now());
            let (mut fork, t_fork) = tracer.time("fork", || warm.fork());
            let (applied, t_apply) = tracer.time("apply", || fork.apply(&step.changes));
            let (diff, t_diff) = tracer.time("diff_against_parent", || fork.diff_against_parent());
            let ((), t_drop) = tracer.time("drop", || drop(fork));
            wall += began.elapsed().as_secs_f64();
            cpu += cpu_seconds() - cpu_before;
            timings.push(Timing {
                kind: step.kind,
                fork: t_fork.as_secs_f64() * 1e3,
                apply: t_apply.as_secs_f64() * 1e3,
                diff: t_diff.as_secs_f64() * 1e3,
                drop: t_drop.as_secs_f64() * 1e3,
            });

            let label = step.kind.label();
            checks.check(applied.is_ok(), || {
                format!(
                    "pass {pass} {label}: apply failed: {:?}",
                    applied.as_ref().err()
                )
            });
            let Ok(delta) = applied else { continue };
            checks.check(diff == delta.fib_changes, || {
                format!("pass {pass} {label}: diff_against_parent disagrees with the delta")
            });
            checks.check(fib_digest(&warm) == parent_digest, || {
                format!("pass {pass} {label}: the dropped fork perturbed its parent")
            });
            let facts = Facts {
                dirty: delta.dirty.len(),
                dirty_hit: delta
                    .dirty
                    .iter()
                    .filter(|d| delta.fib_changes.contains_key(d))
                    .count(),
                fib_changes: delta.total_fib_changes(),
                events: delta.events_executed,
                virtual_ns: delta.virtual_cost.as_nanos(),
            };
            if pass == 0 {
                first_pass.push(facts);
            } else {
                checks.check(first_pass.get(i) == Some(&facts), || {
                    format!("pass {pass} {label}: {facts:?} differs from pass 0")
                });
            }
        }
        pass_wall_s.push(wall);
        pass_cpu_s.push(cpu);
    }

    let sum = |f: fn(&Facts) -> u64| first_pass.iter().map(f).sum::<u64>();
    let dirty = sum(|f| f.dirty as u64);
    let dirty_hit = sum(|f| f.dirty_hit as u64);
    let fib_changes = sum(|f| f.fib_changes as u64);
    let events = sum(|f| f.events);
    let virtual_ns = sum(|f| f.virtual_ns);
    let p50 = |f: fn(&Timing) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());
    let apply_ms = |kind: ChangeKind| {
        median(
            &timings
                .iter()
                .filter(|t| t.kind == kind)
                .map(|t| t.apply)
                .collect::<Vec<_>>(),
        )
    };
    let apply_total_ns: f64 = timings.iter().map(|t| t.apply).sum::<f64>() * 1e6;
    let mut layers = vec![
        ("core.fork_first_ms", fork_first_ms),
        ("core.fork_ms_p50", p50(|t| t.fork)),
        ("core.diff_ms_p50", p50(|t| t.diff)),
        ("core.drop_ms_p50", p50(|t| t.drop)),
        (
            "core.apply_ms.config_update",
            apply_ms(ChangeKind::ConfigUpdate),
        ),
        ("core.apply_ms.link_down", apply_ms(ChangeKind::LinkDown)),
        (
            "core.apply_ms.device_remove",
            apply_ms(ChangeKind::DeviceRemove),
        ),
        ("core.apply_ms.config_acl", apply_ms(ChangeKind::ConfigAcl)),
        ("core.apply.dirty_devices", dirty as f64),
        ("core.apply.fib_changes", fib_changes as f64),
        (
            "core.apply.dirty_hit_share",
            dirty_hit as f64 / dirty.max(1) as f64,
        ),
        ("core.fork.cow_shared_share", cow_shared_share),
        ("core.virtual_s", virtual_ns as f64 / 1e9),
        ("sim.events_executed", events as f64),
        (
            "sim.ns_per_event",
            apply_total_ns / (events * r as u64).max(1) as f64,
        ),
    ];
    layers.extend(baseline_layers(&warm));
    if p.trace {
        oracle(&prep, &warm, &plan, p.seed, &mut checks);
        layers.extend(crate::probes::cheap(&clos, &warm, p.seed));
    }

    Outcome {
        checks,
        setup_s,
        pass_cpu_s,
        pass_wall_s,
        exact: vec![
            ("fib_digest", parent_digest),
            ("virtual_ns", virtual_ns),
            ("sim.events_executed", events),
            ("core.apply.dirty_devices", dirty),
            ("core.apply.dirty_hit_devices", dirty_hit),
            ("core.apply.fib_changes", fib_changes),
        ],
        layers,
        sizes: format!(
            "R={r} passes of {} rehearsals (4 kinds x {TARGETS} targets, 504 devices)",
            plan.len()
        ),
        tracer,
    }
}

/// The expensive oracle the timed run skips, once per change kind: the
/// fork's FIBs must equal those of a cold mockup that had the same
/// change applied the Table 2 way (`Reload`, `Disconnect`) and settled.
/// The changes accumulate on one fork and one cold emulation; the device
/// removal goes last so the other kinds' targets still exist.
fn oracle(
    prep: &Arc<PrepareOutput>,
    warm: &Emulation,
    plan: &[Rehearsal],
    seed: u64,
    checks: &mut Checks,
) {
    let mut steps: Vec<&Rehearsal> = ChangeKind::ALL
        .iter()
        .filter_map(|k| plan.iter().find(|r| r.kind == *k))
        .collect();
    steps.sort_by_key(|r| r.kind == ChangeKind::DeviceRemove);
    let mut cold = mockup(Arc::clone(prep), options(seed).build());
    let mut fork = warm.fork();
    let mut removed = Vec::new();
    for step in steps {
        let label = step.kind.label();
        if let Err(e) = fork.apply(&step.changes) {
            checks.check(false, || format!("oracle {label}: apply failed: {e}"));
            continue;
        }
        for change in &step.changes.changes {
            match change {
                Change::ConfigUpdate { device, config } => {
                    cold.reload(*device, (**config).clone(), false);
                }
                Change::LinkDown(lid) => cold.disconnect(*lid),
                Change::DeviceRemove(dev) => {
                    let links: Vec<LinkId> =
                        cold.topo.neighbors(*dev).map(|(lid, _, _)| lid).collect();
                    for lid in links {
                        cold.disconnect(lid);
                    }
                    removed.push(*dev);
                }
                Change::LinkUp(_) | Change::SpeakerRouteSwap { .. } => {
                    unreachable!("no rehearsal of this workload uses {}", change.kind())
                }
            }
        }
        let settled = cold.settle().is_ok();
        let same = settled
            && fork.emulation().sandboxes.keys().all(|dev| {
                removed.contains(dev)
                    || match (fork.emulation().sim.os(*dev), cold.sim.os(*dev)) {
                        (Some(a), Some(b)) => a.fib() == b.fib(),
                        (a, b) => a.is_none() == b.is_none(),
                    }
            });
        checks.check(same, || {
            format!("oracle {label}: fork FIBs differ from cold mockup + Table 2 apply + settle")
        });
    }
}
