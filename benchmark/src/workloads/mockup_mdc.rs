//! `mockup_mdc`: cold `Mockup` of the 504-device M-DC to route-ready.
//!
//! The paper's headline cost (§8.2, Fig. 8) and the roadmap's "M-DC
//! cliff". About 118 route operations per engine event: BGP decision and
//! export and the RIB tables do almost all of the work; the event queue,
//! `vnet` and the dataplane reads do almost none. A `routing` gain moves
//! this workload and leaves the two S-DC workloads flat.

use super::{
    baseline_layers, cpu_seconds, fib_digest, fib_totals, options, passes, prepare_whole,
    repeat_setup, walk_delivers, Checks, Outcome, Params,
};
use crate::inputs::tor_walks;
use crate::probes;
use crate::spans::Tracer;
use crystalnet::prelude::*;
use crystalnet_telemetry::profile::keys;
use std::time::Instant;

/// Passes of a run of the contract's length; one takes 7 to 8.5 s on the
/// 2-core sandbox. Odd, so the median is a pass and one slow pass drops
/// out.
const PASSES: usize = 3;
/// The set-up is under half a second, so it is repeated.
const SETUP_REPS: usize = 5;
/// Seeded ToR-to-ToR packets walked through every pass's FIBs.
const WALKS: usize = 64;

/// What must repeat bit for bit from pass to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Facts {
    fib_digest: u64,
    route_ops: u64,
    events: u64,
    queue_high_water: u64,
    virtual_ns: u64,
    network_ready_ns: u64,
}

/// Runs the workload.
#[must_use]
pub fn run(p: Params) -> Outcome {
    let mut tracer = Tracer::new(p.trace);
    let mut checks = Checks::default();

    // Set-up: the fabric and `Prepare`, which take a millisecond, and one
    // small warm-up mockup that pays the process's first-touch costs
    // (allocator arenas, interner tables) so the timed passes are alike.
    let ((clos, prep), setup_s) = repeat_setup(SETUP_REPS, || {
        let clos = ClosParams::m_dc().build();
        let prep = prepare_whole(&clos);
        let small = prepare_whole(&ClosParams::s_dc().build());
        drop(mockup(small, options(p.seed).build()));
        (clos, prep)
    });
    let walks = tor_walks(&clos, p.seed, WALKS);

    let r = passes(p.length, PASSES);
    let mut pass_wall_s = Vec::with_capacity(r);
    let mut pass_cpu_s = Vec::with_capacity(r);
    let mut first: Option<Facts> = None;
    let mut last_emu: Option<Emulation> = None;
    let mut interner_hit_share = 0.0;
    for pass in 0..r {
        // One emulation alive at a time, so peak memory is one mockup's.
        drop(last_emu.take());
        tracer.next_op();
        let (hits0, misses0) = crystalnet_routing::intern_stats();
        let cpu = cpu_seconds();
        let (mut emu, wall) = tracer.time("mockup", || {
            mockup(Arc::clone(&prep), options(p.seed).build())
        });
        pass_cpu_s.push(cpu_seconds() - cpu);
        pass_wall_s.push(wall.as_secs_f64());
        if pass == 0 {
            // Later passes find every attribute set already interned.
            let (hits1, misses1) = crystalnet_routing::intern_stats();
            let (hits, misses) = ((hits1 - hits0) as f64, (misses1 - misses0) as f64);
            interner_hit_share = hits / (hits + misses).max(1.0);
        }

        let facts = Facts {
            fib_digest: fib_digest(&emu),
            route_ops: emu.metrics.route_ops,
            events: emu.sim.engine.events_executed(),
            queue_high_water: emu.sim.engine.queue_high_water() as u64,
            virtual_ns: emu.metrics.mockup.as_nanos(),
            network_ready_ns: emu.metrics.network_ready.as_nanos(),
        };
        let ready = facts.route_ops > 0 && emu.list().iter().all(|(_, _, up)| *up);
        checks.check(ready, || format!("pass {pass}: not route-ready"));
        let base = *first.get_or_insert(facts);
        checks.check(base == facts, || {
            format!("pass {pass}: {facts:?} differs from pass 0's {base:?}")
        });
        for w in &walks {
            checks.check(walk_delivers(&mut emu, w), || {
                format!("pass {pass}: {} -> {} not delivered", w.src, w.dst)
            });
        }
        last_emu = Some(emu);
    }
    let emu = last_emu.expect("at least one pass ran");
    let facts = first.expect("at least one pass ran");

    let (prefixes, fib_bytes) = fib_totals(&emu);
    let wall = crate::stats::median(&pass_wall_s);
    let mut layers = vec![
        ("sim.events_executed", facts.events as f64),
        ("sim.queue_high_water", facts.queue_high_water as f64),
        ("sim.ns_per_event", wall * 1e9 / facts.events as f64),
        ("routing.route_ops", facts.route_ops as f64),
        (
            "routing.ns_per_route_op",
            wall * 1e9 / facts.route_ops as f64,
        ),
        ("routing.interner_hit_share", interner_hit_share),
        ("core.virtual_s", facts.virtual_ns as f64 / 1e9),
    ];
    layers.extend(baseline_layers(&emu));
    if p.trace {
        layers.extend(traced(&prep, p.seed, wall, &mut checks, &facts));
        layers.extend(probes::cheap(&clos, &emu, p.seed));
        layers.extend(probes::routing_settle(&clos.topo));
        layers.extend(probes::bgp_handle_update(&clos, p.seed));
    }

    Outcome {
        checks,
        setup_s,
        pass_cpu_s,
        pass_wall_s,
        exact: vec![
            ("fib_digest", facts.fib_digest),
            ("virtual_ns", facts.virtual_ns),
            ("sim.events_executed", facts.events),
            ("sim.queue_high_water", facts.queue_high_water),
            ("routing.route_ops", facts.route_ops),
            ("vnet.network_ready_virtual_ns", facts.network_ready_ns),
            ("vnet.vms", emu.vm_ids.len() as u64),
            ("vnet.links_provisioned", emu.vlinks.len() as u64),
            ("dataplane.fib_prefixes", prefixes),
            ("dataplane.fib_bytes", fib_bytes),
        ],
        layers,
        sizes: format!(
            "R={r} passes of 1 mockup (504 devices), {WALKS} walks checked per pass; \
             set-up repeated {SETUP_REPS} times"
        ),
        tracer,
    }
}

/// One more pass with `profiling(true)`: the emulator's own profile
/// keys, the telemetry counters, and what recording them cost.
fn traced(
    prep: &Arc<PrepareOutput>,
    seed: u64,
    untraced_wall_s: f64,
    checks: &mut Checks,
    facts: &Facts,
) -> probes::Metrics {
    let t = Instant::now();
    let profiled = mockup(Arc::clone(prep), options(seed).profiling(true).build());
    let profiled_wall_s = t.elapsed().as_secs_f64();
    checks.check(fib_digest(&profiled) == facts.fib_digest, || {
        "profiling changed the FIBs".to_string()
    });
    let report = profiled.pull_report();
    let secs = |key: &str| report.profile.as_ref().map_or(0, |p| p.wall_ns(key)) as f64 / 1e9;
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0) as f64;
    let (rib_bytes, devices) = report
        .memory
        .as_ref()
        .map_or((0, 1), |m| (m.devices.rib_bytes, m.devices.devices.max(1)));
    vec![
        (
            "core.mockup.self_s",
            secs(keys::MOCKUP) - secs(keys::MOCKUP_CONVERGE),
        ),
        ("core.mockup.converge_s", secs(keys::MOCKUP_CONVERGE)),
        ("sim.engine.run_s", secs(keys::ENGINE_RUN)),
        (
            "routing.bgp_updates_sent",
            counter("routing.bgp_updates_sent"),
        ),
        (
            "routing.bgp_prefixes_announced",
            counter("routing.bgp_prefixes_announced"),
        ),
        (
            "routing.bgp_prefixes_withdrawn",
            counter("routing.bgp_prefixes_withdrawn"),
        ),
        (
            "routing.rib_bytes_per_device",
            rib_bytes as f64 / devices as f64,
        ),
        (
            "telemetry.mockup_overhead_pct",
            (profiled_wall_s / untraced_wall_s - 1.0) * 100.0,
        ),
    ]
}
