//! `watch_sdc`: a converged S-DC watched live — probe mesh and flow
//! load every virtual second, a ToR uplink flapping now and then.
//!
//! The only workload where the dataplane (`decide()`, one LPM per hop),
//! the health and traffic planes, their watchdogs and incident
//! correlation do the work, and where BGP is idle except on the flaps.
//! Events here cost well under a microsecond, so the engine's per-event
//! overhead shows; in `mockup_mdc` (about 150 µs per event) it cannot. A
//! `dataplane` or plane gain moves this workload and leaves `mockup_mdc`
//! flat; a `sim` queue gain shows here first.

use super::{
    baseline_layers, cpu_seconds, fib_digest, options, passes, prepare_whole, repeat_setup, Checks,
    Outcome, Params,
};
use crate::inputs::{watch_plan, WatchPlan};
use crate::spans::Tracer;
use crate::stats::{median, tail_percentile};
use crystalnet::prelude::*;
use std::time::Instant;

/// Passes of a run of the contract's length; one takes 2.5 to 3.5 s on
/// the 2-core sandbox.
const PASSES: usize = 5;
/// Virtual seconds watched per pass, one `advance` each.
const SECONDS_PER_PASS: usize = 1_600;
/// A flap is injected every this many virtual seconds.
const FLAP_EVERY: usize = 200;
/// The uplink stays down this long.
const FLAP_DOWN: SimDuration = SimDuration::from_secs(10);
/// The set-up is under half a second, so it is repeated.
const SETUP_REPS: usize = 5;

fn flap(link: LinkId) -> FaultPlan {
    FaultPlan::default().then(
        SimDuration::ZERO,
        FaultKind::LinkFlapBurst {
            link,
            flaps: 1,
            period: FLAP_DOWN,
        },
    )
}

fn build(prep: &Arc<PrepareOutput>, seed: u64, plan: Option<&WatchPlan>) -> Emulation {
    let mut b = options(seed);
    if let Some(plan) = plan {
        b = b
            .health_config(plan.probes.clone())
            .traffic_config(plan.traffic.clone());
    }
    mockup(Arc::clone(prep), b.build())
}

/// Runs the workload.
#[must_use]
pub fn run(p: Params) -> Outcome {
    let mut tracer = Tracer::new(p.trace);
    let mut checks = Checks::default();
    let r = passes(p.length, PASSES);
    let flaps_per_pass = SECONDS_PER_PASS / FLAP_EVERY;

    let ((clos, prep, plan, mut emu), setup_s) = repeat_setup(SETUP_REPS, || {
        let clos = ClosParams::s_dc().build();
        let prep = prepare_whole(&clos);
        let plan = watch_plan(&clos, p.seed, r * flaps_per_pass);
        let emu = build(&prep, p.seed, Some(&plan));
        (clos, prep, plan, emu)
    });
    let mut pass_wall_s = Vec::with_capacity(r);
    let mut pass_cpu_s = Vec::with_capacity(r);
    let mut advance_ms = Vec::with_capacity(r * SECONDS_PER_PASS);
    let mut flap_ms = Vec::new();
    let mut flapped_at: Vec<SimTime> = Vec::new();
    let mut flap_links = plan.flaps.iter();
    let events_before = emu.sim.engine.events_executed();
    let mut events_first_pass = 0;
    for pass in 0..r {
        let (cpu, began) = (cpu_seconds(), Instant::now());
        for s in 0..SECONDS_PER_PASS {
            tracer.next_op();
            if s % FLAP_EVERY == FLAP_EVERY / 2 {
                let link = *flap_links.next().expect("one planned flap per slot");
                let at = emu.now();
                let (res, took) = tracer.time("flap", || emu.run_fault_plan(&flap(link)));
                flap_ms.push(took.as_secs_f64() * 1e3);
                flapped_at.push(at);
                checks.check(res.is_ok(), || format!("pass {pass}: flap failed: {res:?}"));
            } else {
                let ((), took) = tracer.time("advance", || emu.advance(SimDuration::from_secs(1)));
                advance_ms.push(took.as_secs_f64() * 1e3);
            }
        }
        pass_wall_s.push(began.elapsed().as_secs_f64());
        pass_cpu_s.push(cpu_seconds() - cpu);
        if pass == 0 {
            events_first_pass = emu.sim.engine.events_executed() - events_before;
        }
    }
    let events_total = emu.sim.engine.events_executed() - events_before;

    // The planes observe; they must never steer. A twin without them,
    // given the same flaps, has to end on the same FIBs.
    let digest = fib_digest(&emu);
    let mut twin = build(&prep, p.seed, None);
    for &link in &plan.flaps {
        let res = twin.run_fault_plan(&flap(link));
        checks.check(res.is_ok(), || format!("twin flap failed: {res:?}"));
    }
    checks.check(fib_digest(&twin) == digest, || {
        "final FIBs differ from the planes-off twin's".to_string()
    });
    drop(twin);

    // A round launched at the very end of the last pass is still in
    // flight; its reports land within milliseconds of virtual time.
    let in_flight = |emu: &Emulation| {
        let probes = emu
            .sim
            .health()
            .map_or(0, |h| h.probes_sent - h.probes_delivered - h.probes_lost);
        let flows = emu
            .sim
            .traffic()
            .map_or(0, |t| t.flows_sent - t.flows_delivered - t.flows_lost);
        probes + flows
    };
    for _ in 0..20 {
        if in_flight(&emu) == 0 {
            break;
        }
        emu.advance(SimDuration::from_millis(50));
    }
    let health = emu.pull_health();
    let traffic = emu.pull_traffic();
    checks.check(
        health.probes_sent == health.probes_delivered + health.probes_lost,
        || {
            format!(
                "probes sent {} != delivered {} + lost {}",
                health.probes_sent, health.probes_delivered, health.probes_lost
            )
        },
    );
    checks.check(
        traffic.flows_sent == traffic.flows_delivered + traffic.flows_lost,
        || {
            format!(
                "flows sent {} != delivered {} + lost {}",
                traffic.flows_sent, traffic.flows_delivered, traffic.flows_lost
            )
        },
    );
    let incidents = emu.incidents();
    let correlated = incidents.iter().filter(|i| i.cause.is_some()).count();
    for &at in &flapped_at {
        let explained = incidents.iter().any(|i| {
            matches!(&i.cause, Some(IncidentCause::Fault { at: c, .. })
                if *c >= at && *c <= at + FLAP_DOWN)
        });
        checks.check(explained, || {
            format!("the flap at {at:?} has no correlated incident")
        });
    }

    let total_wall: f64 = pass_wall_s.iter().sum();
    let walks = (health.probes_sent + traffic.flows_sent).max(1) as f64;
    let mut layers = vec![
        ("core.advance.op_ms_p50", median(&advance_ms)),
        (
            "core.advance.op_ms_p99",
            tail_percentile(&advance_ms, 0.99).unwrap_or(0.0),
        ),
        (
            "core.advance.last_over_first_pass",
            pass_wall_s[r - 1] / pass_wall_s[0],
        ),
        ("core.flap_ms_p50", median(&flap_ms)),
        ("core.incidents_total", incidents.len() as f64),
        (
            "core.incidents_correlated_share",
            correlated as f64 / incidents.len().max(1) as f64,
        ),
        ("routing.plane.probes_sent", health.probes_sent as f64),
        ("routing.plane.flows_sent", traffic.flows_sent as f64),
        (
            "routing.plane.flows_delivered_share",
            traffic.flows_delivered as f64 / traffic.flows_sent.max(1) as f64,
        ),
        ("routing.plane.ns_per_walk", total_wall * 1e9 / walks),
        ("sim.events_executed", events_first_pass as f64),
        (
            "sim.queue_high_water",
            emu.sim.engine.queue_high_water() as f64,
        ),
        (
            "sim.ns_per_event",
            total_wall * 1e9 / events_total.max(1) as f64,
        ),
    ];
    layers.extend(baseline_layers(&emu));
    if p.trace {
        layers.extend(crate::probes::sim(p.seed));
        layers.extend(crate::probes::cheap(&clos, &emu, p.seed));
    }

    Outcome {
        checks,
        setup_s,
        pass_cpu_s,
        pass_wall_s,
        exact: vec![
            ("fib_digest", digest),
            ("virtual_ns", emu.metrics.mockup.as_nanos()),
            ("sim.events_executed", events_total),
            ("sim.events_executed.first_pass", events_first_pass),
            ("routing.plane.probes_sent", health.probes_sent),
            ("routing.plane.flows_sent", traffic.flows_sent),
            ("routing.plane.flows_delivered", traffic.flows_delivered),
            ("core.incidents_total", incidents.len() as u64),
            ("core.incidents_correlated", correlated as u64),
        ],
        layers,
        sizes: format!(
            "R={r} passes of {SECONDS_PER_PASS} virtual seconds ({flaps_per_pass} flaps), \
             256 probe pairs + 256 flows per second, 128 devices"
        ),
        tracer,
    }
}
