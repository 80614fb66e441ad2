//! Figure 8: network-ready / route-ready / mockup / clear latencies, at
//! the 10th/50th/90th percentile over repeated runs, across datacenter
//! scales and VM fleet sizes.

use crate::config::{figure8_configs, prepare_whole, DcConfig, Scale};
use crate::{claim, Claim, PaperResult};
use crystalnet::{mockup, Emulation, MockupOptions};
use crystalnet_sim::{LatencySummary, SimDuration};

/// Latency samples of one configuration across repetitions.
pub struct Fig8Row {
    /// Configuration label (`M-DC/50`).
    pub label: String,
    /// Network-ready percentiles.
    pub network_ready: LatencySummary,
    /// Route-ready percentiles.
    pub route_ready: LatencySummary,
    /// Whole-Mockup percentiles.
    pub mockup: LatencySummary,
    /// Clear percentiles.
    pub clear: LatencySummary,
    /// Devices emulated.
    pub devices: usize,
}

/// Runs one configuration once; returns the emulation for reuse.
#[must_use]
pub fn run_once(cfg: &DcConfig, seed: u64) -> Emulation {
    mockup(
        prepare_whole(&cfg.params.build().topo, &cfg.plan_options()),
        MockupOptions::builder()
            .seed(seed)
            .quiet(SimDuration::from_secs(45))
            .build(),
    )
}

/// Runs `reps` seeds of one configuration and summarizes.
fn run_config(cfg: &DcConfig, reps: u64) -> Fig8Row {
    let mut samples: [Vec<SimDuration>; 4] = Default::default();
    let mut devices = 0;
    for seed in 0..reps {
        let mut emu = run_once(cfg, seed);
        let m = &emu.metrics;
        let run = [m.network_ready, m.route_ready, m.mockup];
        devices = emu.prep.emulated.len();
        for (s, d) in samples.iter_mut().zip(run.into_iter().chain([emu.clear()])) {
            s.push(d);
        }
    }
    let summary = |s: Vec<_>| LatencySummary::from_samples(&s).expect("reps >= 1");
    let [network_ready, route_ready, mockup, clear] = samples.map(summary);
    Fig8Row {
        label: cfg.label(),
        network_ready,
        route_ready,
        mockup,
        clear,
        devices,
    }
}

/// Figure 8: start/stop latencies across scales and fleets, and the
/// paper's claims checked against the rows.
pub fn fig8(scale: &Scale) -> PaperResult {
    let reps = scale.reps;
    let rows: Vec<_> = figure8_configs(scale)
        .iter()
        .map(|cfg| {
            eprintln!("fig8: running {} ({reps} reps)...", cfg.label());
            run_config(cfg, reps)
        })
        .collect();
    let mut text = String::new();
    out!(
        text,
        "\n=== Figure 8: start/stop latencies (p10/p50/p90 over {reps} runs) ==="
    );
    out!(text, "DC/#VMs       devices |              network-ready |                route-ready |                     mockup |                      clear");
    for r in &rows {
        let [n, rr, m, c] = [&r.network_ready, &r.route_ready, &r.mockup, &r.clear]
            .map(|s| format!("{} / {} / {}", s.p10, s.p50, s.p90));
        let (label, devices) = (&r.label, r.devices);
        out!(
            text,
            "{label:<12} {devices:>8} | {n:>26} | {rr:>26} | {m:>26} | {c:>26}"
        );
    }
    PaperResult::new(text, "Figure 8", claims(&rows))
}

/// The paper's Figure 8 claims, checked against the rows: per row, then
/// per pair of one DC at two fleet sizes.
#[must_use]
pub fn claims(rows: &[Fig8Row]) -> Vec<Claim> {
    let mins = SimDuration::from_mins;
    let mut out = Vec::new();
    for r in rows {
        let (l, net, mockup) = (&r.label, r.network_ready.p90, r.mockup.p50);
        out.extend([
            claim("median mockup < 32 min", l, mockup < mins(32)),
            claim("p90 mockup < 50 min", l, r.mockup.p90 < mins(50)),
            claim(
                "network-ready < 2 min (<5% of mockup)",
                l,
                net < mins(2).min(mockup / 20),
            ),
            claim("clear < 2 min", l, r.clear.p90 < mins(2)),
            claim(
                "route-ready p50 ≥ 90% of mockup p50 (route-ready dominates)",
                l,
                r.route_ready.p50 >= mockup.mul_f64(0.9),
            ),
        ]);
    }
    for pair in rows.chunks(2) {
        if let [small, big] = pair {
            let pair = format!("{} → {}", small.label, big.label);
            let (small, big) = (small.mockup.p50, big.mockup.p50);
            out.push(claim("more VMs do not slow mockup", &pair, big <= small));
            if pair.starts_with("L-DC") {
                let paper = "twice the VMs leave mockup above half (routing-bound)";
                out.push(claim(paper, pair, big > small / 2));
            }
        }
    }
    out
}
