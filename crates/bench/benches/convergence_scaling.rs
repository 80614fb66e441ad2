//! Convergence-scaling bench: serial vs sharded parallel executor on
//! Clos fabrics of ~64/128/256 devices × 1/2/4/8 workers.
//!
//! Prints a table and writes `target/BENCH_convergence.json`. Every
//! parallel run is checked bit-identical to the serial
//! baseline (converged instant, route-op totals, and every FIB) before
//! its timing is accepted — a wrong answer fast is not a result.
//!
//! Wall-clock speedup requires hardware parallelism: when a row was
//! measured with fewer hardware threads than workers, its
//! `speedup_vs_serial` is `null` and the row carries `"degraded": true`
//! — an oversubscribed run measures scheduler thrash, not the executor,
//! and a misleading "1.0x" from single-core CI must never look like a
//! real result. Timings are the median of `CRYSTALNET_REPS` samples
//! (floored at 2 so no single outlier can become a headline number).

use crystalnet::prelude::MemRecorder;
use crystalnet_net::{partition, ClosParams, ClosTopology};
use crystalnet_routing::harness::build_full_bgp_sim;
use crystalnet_routing::{ControlPlaneSim, UniformWorkModel, WorkModel};
use crystalnet_sim::{SimDuration, SimTime};
use std::time::Instant;

const WORKERS: [usize; 4] = [1, 2, 4, 8];
const QUIET: SimDuration = SimDuration::from_secs(5);

fn deadline() -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(120)
}

fn work() -> Box<dyn WorkModel> {
    Box::new(UniformWorkModel {
        boot: SimDuration::from_secs(1),
        ..UniformWorkModel::default()
    })
}

/// Clos fabrics sized to land near 64 / 128 / 256 total devices.
fn fabrics() -> Vec<(&'static str, ClosTopology)> {
    let mk = |name: &str, b, sg, spg, p, l, t, gpp| {
        ClosParams {
            name: name.into(),
            borders: b,
            spine_groups: sg,
            spines_per_group: spg,
            pods: p,
            leaves_per_pod: l,
            tors_per_pod: t,
            groups_per_pod: gpp,
            ext_peers_per_border: 1,
            ext_prefixes_per_peer: 8,
        }
        .build()
    };
    vec![
        ("clos-64", mk("clos-64", 2, 1, 2, 4, 2, 13, 1)),
        ("clos-128", mk("clos-128", 2, 1, 4, 6, 2, 18, 1)),
        ("clos-256", mk("clos-256", 4, 2, 4, 12, 2, 18, 2)),
    ]
}

struct Outcome {
    converged_at: Option<SimTime>,
    route_ops: u64,
    sim: ControlPlaneSim,
}

fn run_once(topo: &ClosTopology, workers: usize) -> (Outcome, f64) {
    let mut sim = build_full_bgp_sim(&topo.topo, work());
    sim.boot_all(SimTime::ZERO);
    let start = Instant::now();
    let converged_at = if workers == 1 {
        sim.run_until_quiet(QUIET, deadline())
    } else {
        let part = partition(&topo.topo, workers);
        let models = (0..workers).map(|_| work()).collect();
        let (t, _) = sim.run_until_quiet_parallel(QUIET, deadline(), &part, models);
        t
    };
    let secs = start.elapsed().as_secs_f64();
    let route_ops = sim.engine.world.route_ops_total;
    (
        Outcome {
            converged_at,
            route_ops,
            sim,
        },
        secs,
    )
}

/// One extra, untimed run with a live recorder: the timed runs keep the
/// no-op recorder (so instrumentation stays off the measured path), and
/// this run supplies the canonical counter section for the JSON artifact.
fn instrumented_counters(topo: &ClosTopology) -> String {
    let mut sim = build_full_bgp_sim(&topo.topo, work());
    sim.engine.world.recorder = Box::new(MemRecorder::new());
    sim.boot_all(SimTime::ZERO);
    sim.run_until_quiet(QUIET, deadline());
    MemRecorder::from_recorder(&*sim.engine.world.recorder)
        .expect("recorder was installed above")
        .report()
        .counters_json()
}

fn assert_matches(base: &Outcome, got: &Outcome, topo: &ClosTopology, tag: &str) {
    assert_eq!(base.converged_at, got.converged_at, "{tag}: converged_at");
    assert_eq!(base.route_ops, got.route_ops, "{tag}: route ops");
    for (id, d) in topo.topo.devices() {
        match (base.sim.os(id), got.sim.os(id)) {
            (None, None) => {}
            (Some(a), Some(b)) => assert_eq!(a.fib(), b.fib(), "{tag}: FIB of {}", d.name),
            _ => panic!("{tag}: OS presence differs on {}", d.name),
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() {
    let samples = crystalnet_bench::config::reps_or(3).max(2) as usize;
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("convergence_scaling: {samples} samples/config, {hw} hardware thread(s)");
    if hw < *WORKERS.last().unwrap() {
        println!("note: fewer hardware threads than max workers — speedups are bounded by {hw}x");
    }

    let mut rows = Vec::new();
    let mut counter_rows = Vec::new();
    for (label, topo) in fabrics() {
        let devices = topo.topo.device_count();
        counter_rows.push(format!(
            "{{\"topology\": \"{label}\", \"counters\": {}}}",
            instrumented_counters(&topo)
        ));
        let mut serial_median = 0.0;
        let mut baseline: Option<Outcome> = None;
        for &workers in &WORKERS {
            let mut times = Vec::with_capacity(samples);
            for _ in 0..samples {
                let (out, secs) = run_once(&topo, workers);
                match &baseline {
                    None => {
                        assert!(out.converged_at.is_some(), "{label}: must converge");
                        baseline = Some(out);
                    }
                    Some(base) => assert_matches(base, &out, &topo, label),
                }
                times.push(secs);
            }
            let med = median(times);
            if workers == 1 {
                serial_median = med;
            }
            // An oversubscribed run (more workers than hardware threads)
            // measures scheduler thrash, not the executor: refuse to
            // report a speedup for it.
            let degraded = hw < workers;
            let (speedup_str, speedup_json) = if degraded {
                (
                    "   n/a (degraded: oversubscribed)".to_string(),
                    "null".to_string(),
                )
            } else {
                let speedup = serial_median / med;
                (format!("speedup {speedup:>5.2}x"), format!("{speedup:.4}"))
            };
            println!(
                "{label:<10} devices={devices:<4} workers={workers}  median {med:>8.3}s  {speedup_str}"
            );
            rows.push(format!(
                "{{\"topology\": \"{label}\", \"devices\": {devices}, \"workers\": {workers}, \
                 \"median_seconds\": {med:.6}, \"speedup_vs_serial\": {speedup_json}, \
                 \"degraded\": {degraded}, \"converged_at_ns\": {}}}",
                baseline
                    .as_ref()
                    .and_then(|b| b.converged_at)
                    .map_or(0, SimTime::as_nanos)
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"convergence_scaling\",\n  \"bench_meta\": {},\n  \
         \"quiet_seconds\": {},\n  \
         \"samples\": {samples},\n  \"hardware_threads\": {hw},\n  \"results\": [\n    {}\n  ],\n  \
         \"counters\": [\n    {}\n  ]\n}}\n",
        crystalnet_bench::meta::bench_meta_json(*WORKERS.last().unwrap()),
        QUIET.as_nanos() / 1_000_000_000,
        rows.join(",\n    "),
        counter_rows.join(",\n    ")
    );
    let path = crystalnet_bench::meta::write_result("BENCH_convergence.json", &json);
    println!("wrote {}", path.display());
}
