//! `inspect_sdc`: the monitor surface swept over a converged S-DC with
//! telemetry and tracing on.
//!
//! The **read** side of the tables `mockup_mdc` **writes**: a RIB, FIB or
//! provenance restructuring that speeds route installation but slows
//! `lookup`, `route_detail` or export shows up here as a loss. Also the
//! only workload that exercises telemetry export and `config::render`.
//! Every call is microseconds, so a sweep batches each kind of call and
//! a pass is 250 sweeps.

use super::{
    baseline_layers, cpu_seconds, fib_digest, options, passes, prepare_whole, repeat_setup, Checks,
    Outcome, Params,
};
use crate::inputs::{inspect_plan, InspectPlan};
use crate::spans::Tracer;
use crate::stats::{median, tail_percentile};
use crystalnet::prelude::*;
use std::time::{Duration, Instant};

/// Passes of a run of the contract's length; one takes 0.8 to 1 s on the
/// 2-core sandbox.
const PASSES: usize = 19;
/// Sweeps per pass.
const SWEEPS: usize = 250;
/// Seeded explain/walk pairs per device per sweep.
const PER_DEVICE: usize = 8;
/// Seeded devices whose config and route table a sweep pulls.
const CONFIG_DEVICES: usize = 8;
/// The set-up is under half a second, so it is repeated.
const SETUP_REPS: usize = 5;

/// Wall spent in each kind of call, summed over every sweep.
#[derive(Default)]
struct Walls {
    pull_states: Duration,
    explain_route: Duration,
    packet_walk: Duration,
    pull_config: Duration,
    show_routes: Duration,
}

/// One sweep. Returns the report JSON it pulled. `digests` is scratch
/// space kept across sweeps, so the benchmark itself allocates nothing
/// between the timed calls.
fn sweep(
    emu: &mut Emulation,
    plan: &InspectPlan,
    tracer: &mut Tracer,
    walls: &mut Walls,
    report_us: &mut Vec<f64>,
    digests: &mut Vec<Option<u64>>,
    checks: &mut Checks,
) -> String {
    let ((), took) = tracer.time("pull_states", || {
        for d in &plan.devices {
            let state = emu.pull_states(d.dev);
            checks.check(
                state.as_ref().is_ok_and(|s| s.up && s.fib_prefixes > 0),
                || format!("pull_states({}): {state:?}", d.host),
            );
        }
    });
    walls.pull_states += took;

    digests.clear();
    let ((), took) = tracer.time("explain_route", || {
        for d in &plan.devices {
            for w in &d.walks {
                let explained = emu.explain_route(&d.host, w.prefix);
                checks.check(explained.is_ok(), || {
                    format!("explain_route({}, {}): {explained:?}", d.host, w.prefix)
                });
                digests.push(explained.ok().map(|e| e.prov_digest));
            }
        }
    });
    walls.explain_route += took;

    // Each explained route must be the one its packet takes: the first
    // hop's FIB entry carries the explanation's provenance digest, and
    // the ToR behind the prefix delivers the packet.
    let mut digests = digests.iter();
    let ((), took) = tracer.time("packet_walk", || {
        for d in &plan.devices {
            for w in &d.walks {
                let sig = emu.inject_packet(w.from, w.src, w.dst);
                let walked = emu.pull_packets(sig);
                let first_hop = emu.traces.events(sig).first().and_then(|e| e.prov);
                emu.traces.clear(sig);
                let expected = digests.next().copied().flatten();
                let ok = matches!(&walked, Ok((path, ForwardDecision::Deliver))
                    if path.last() == Some(&w.to))
                    && expected.is_some()
                    && first_hop == expected;
                checks.check(ok, || {
                    format!(
                        "walk {} -> {}: {walked:?}, first hop {first_hop:?}, explained {expected:?}",
                        d.host, w.dst
                    )
                });
            }
        }
    });
    walls.packet_walk += took;

    let ((), took) = tracer.time("pull_config", || {
        for (dev, host) in &plan.config_devices {
            let text = emu.pull_config(*dev);
            checks.check(
                text.as_ref().is_ok_and(|t| t.contains(host.as_str())),
                || format!("pull_config({host}) failed"),
            );
        }
    });
    walls.pull_config += took;

    let ((), took) = tracer.time("show_routes", || {
        for (_, host) in &plan.config_devices {
            let routes = emu.login_and_run(host, MgmtCommand::ShowRoutes);
            checks.check(
                matches!(&routes, Ok(MgmtResponse::Routes(r)) if !r.is_empty()),
                || format!("ShowRoutes on {host} failed"),
            );
        }
    });
    walls.show_routes += took;

    let (json, took) = tracer.time("report_json", || emu.pull_report().to_json());
    report_us.push(took.as_secs_f64() * 1e6);
    json
}

/// Runs the workload.
#[must_use]
pub fn run(p: Params) -> Outcome {
    let mut tracer = Tracer::new(p.trace);
    let mut checks = Checks::default();

    let ((clos, plan, mut emu), setup_s) = repeat_setup(SETUP_REPS, || {
        let clos = ClosParams::s_dc().build();
        let prep = prepare_whole(&clos);
        let plan = inspect_plan(&clos, p.seed, PER_DEVICE, CONFIG_DEVICES);
        let emu = mockup(prep, options(p.seed).telemetry(true).build());
        (clos, plan, emu)
    });
    let digest = fib_digest(&emu);
    let events_before = emu.sim.engine.events_executed();

    let r = passes(p.length, PASSES);
    let mut pass_wall_s = Vec::with_capacity(r);
    let mut pass_cpu_s = Vec::with_capacity(r);
    let mut sweep_ms = Vec::with_capacity(r * SWEEPS);
    let mut report_us = Vec::with_capacity(r * SWEEPS);
    let mut walls = Walls::default();
    let mut digests = Vec::with_capacity(plan.devices.len() * PER_DEVICE);
    let mut first_report: Option<String> = None;
    for pass in 0..r {
        let (cpu, began) = (cpu_seconds(), Instant::now());
        for s in 0..SWEEPS {
            tracer.next_op();
            let sweep_began = Instant::now();
            let json = sweep(
                &mut emu,
                &plan,
                &mut tracer,
                &mut walls,
                &mut report_us,
                &mut digests,
                &mut checks,
            );
            sweep_ms.push(sweep_began.elapsed().as_secs_f64() * 1e3);
            match &first_report {
                None => {
                    let parsed = serde_json::from_str::<serde_json::Value>(&json);
                    checks.check(parsed.is_ok(), || {
                        "the report JSON does not parse".to_string()
                    });
                    first_report = Some(json);
                }
                Some(first) => checks.check(*first == json, || {
                    format!("pass {pass} sweep {s}: the report changed between sweeps")
                }),
            }
        }
        pass_wall_s.push(began.elapsed().as_secs_f64());
        pass_cpu_s.push(cpu_seconds() - cpu);
    }
    checks.check(fib_digest(&emu) == digest, || {
        "inspecting changed the FIBs".to_string()
    });

    let report = emu.pull_report();
    let report_bytes = first_report.map_or(0, |j| j.len()) as u64;
    let sweeps = (r * SWEEPS) as f64;
    let per_call_us = |wall: Duration, calls_per_sweep: usize| {
        wall.as_secs_f64() * 1e6 / (sweeps * calls_per_sweep as f64)
    };
    let explains = plan.devices.len() * PER_DEVICE;
    let events = emu.sim.engine.events_executed() - events_before;
    let mut layers = vec![
        (
            "core.inspect.pull_states_us",
            per_call_us(walls.pull_states, plan.devices.len()),
        ),
        (
            "core.inspect.explain_route_us",
            per_call_us(walls.explain_route, explains),
        ),
        (
            "core.inspect.packet_walk_us",
            per_call_us(walls.packet_walk, explains),
        ),
        (
            "core.inspect.pull_config_us",
            per_call_us(walls.pull_config, CONFIG_DEVICES),
        ),
        (
            "core.inspect.show_routes_us",
            per_call_us(walls.show_routes, CONFIG_DEVICES),
        ),
        (
            "core.inspect.sweep_ms_p95",
            tail_percentile(&sweep_ms, 0.95).unwrap_or(0.0),
        ),
        ("telemetry.report_json_us", median(&report_us)),
        ("telemetry.report_bytes", report_bytes as f64),
        ("sim.events_executed", events as f64),
    ];
    layers.extend(baseline_layers(&emu));
    if p.trace {
        let emitted = report
            .counters
            .get("telemetry.trace_emitted")
            .copied()
            .unwrap_or(0);
        let dropped = report
            .counters
            .get("telemetry.trace_dropped")
            .copied()
            .unwrap_or(0);
        let t = Instant::now();
        let jsonl = emu.trace_jsonl();
        let export_s = t.elapsed().as_secs_f64();
        layers.extend([
            (
                "telemetry.trace_jsonl_mb_per_s",
                jsonl.len() as f64 / 1e6 / export_s,
            ),
            (
                "telemetry.trace_dropped_share",
                dropped as f64 / emitted.max(1) as f64,
            ),
        ]);
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
            ("sim.events_executed", events),
            ("telemetry.report_bytes", report_bytes),
            ("core.inspect.explains_per_sweep", explains as u64),
        ],
        layers,
        sizes: format!(
            "R={r} passes of {SWEEPS} sweeps ({} pull_states, {explains} explain_route, \
             {explains} packet walks, {CONFIG_DEVICES} pull_config, {CONFIG_DEVICES} ShowRoutes, \
             1 report), 128 devices",
            plan.devices.len()
        ),
        tracer,
    }
}
