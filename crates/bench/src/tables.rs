//! Table 3 (evaluation networks, including total route counts) and
//! Table 4 (safe-boundary emulation scales and the §8.4 cost reduction).

use crate::config::Scale;
use crate::{claim, Claim, PaperResult};
use crystalnet::{plan_vms, PlanOptions};
use crystalnet_boundary::{find_safe_dc_boundary, Classification};
use crystalnet_net::{ClosParams, ClosTopology, DeviceId, LayerCounts, Role};
use crystalnet_routing::harness::build_full_bgp_sim;
use crystalnet_routing::UniformWorkModel;
use crystalnet_sim::{SimDuration, SimTime};

/// A Table 3 row.
pub struct Table3Row {
    /// Network name.
    pub name: String,
    /// Devices per layer, at the paper's scale.
    pub layers: LayerCounts,
    /// Total routing-table entries across all switches, measured from a
    /// converged control plane at `scale`.
    pub routes: usize,
    /// Scale factor the measurement ran at.
    pub scale: f64,
}

/// Converges a DC's control plane and counts all routing-table entries.
fn measure_routes(dc: &ClosTopology) -> usize {
    let mut sim = build_full_bgp_sim(
        &dc.topo,
        Box::new(UniformWorkModel {
            boot: SimDuration::from_secs(1),
            ..UniformWorkModel::default()
        }),
    );
    sim.boot_all(SimTime::ZERO);
    sim.run_until_quiet(
        SimDuration::from_secs(30),
        SimTime::ZERO + SimDuration::from_mins(600),
    )
    .expect("DC converges");
    dc.topo
        .devices()
        .filter(|(_, d)| d.role != Role::External)
        .map(|(id, _)| sim.fib(id).map_or(0, |f| f.route_entry_count()))
        .sum()
}

/// Table 3: builds and measures the three evaluation networks, and checks
/// their route totals against the paper's bands.
pub fn table3(scale: &Scale) -> PaperResult {
    let mut rows = Vec::new();
    for (params, measure_scale) in [
        (ClosParams::s_dc(), 1.0),
        (ClosParams::m_dc(), 1.0),
        (ClosParams::l_dc(), scale.l_dc),
    ] {
        // Layer counts always reflect the paper-scale geometry.
        let layers = params.clone().build().layer_counts();
        let measured = params.clone().scaled_pods(measure_scale).build();
        rows.push(Table3Row {
            name: params.name.to_uppercase(),
            layers,
            routes: measure_routes(&measured),
            scale: measure_scale,
        });
    }
    let mut text = String::new();
    out!(text, "\n=== Table 3: evaluation datacenter networks ===");
    out!(
        text,
        "Network  #Borders  #Spines  #Leaves    #ToRs        #Routes   scale"
    );
    for r in &rows {
        let (l, scale) = (&r.layers, format!("{}x", r.scale));
        out!(
            text,
            "{:<8} {:>8} {:>8} {:>8} {:>8} {:>14} {scale:>7}",
            r.name,
            l.borders,
            l.spines,
            l.leaves,
            l.tors,
            r.routes
        );
    }
    out!(
        text,
        "paper bands: S-DC O(50K), M-DC O(1M), L-DC O(20M) routes"
    );
    PaperResult::new(text, "Table 3", table3_claims(&rows))
}

/// The paper's route-count bands, one per row in S/M/L-DC order: a row's
/// total, scaled to 1x, lies within 10x of its band.
#[must_use]
pub fn table3_claims(rows: &[Table3Row]) -> Vec<Claim> {
    let bands = [
        ("S-DC routes within 10x of O(50K)", 5e4),
        ("M-DC routes within 10x of O(1M)", 1e6),
        ("L-DC routes within 10x of O(20M)", 2e7),
    ];
    rows.iter()
        .zip(bands)
        .map(|(r, (paper, band))| {
            let at_1x = r.routes as f64 / r.scale;
            let measured = format!("{} routes at {}x", r.routes, r.scale);
            claim(
                paper,
                measured,
                (band / 10.0..=band * 10.0).contains(&at_1x),
            )
        })
        .collect()
}

/// Table 4: both §8.4 cases on the full L-DC geometry, and the paper's
/// scale and cost claims.
pub fn table4() -> PaperResult {
    let dc = ClosParams::l_dc().build();
    let whole: Vec<DeviceId> = dc
        .topo
        .devices()
        .filter(|(_, d)| d.role != Role::External)
        .map(|(id, _)| id)
        .collect();
    let plan_opts = PlanOptions {
        max_devices_per_vm: 12,
        ..PlanOptions::default()
    };
    let whole_plan = plan_vms(&dc.topo, &whole, &[], &plan_opts);
    let whole_vms = whole_plan.vm_count();
    let pod = &dc.pods[0];
    let one_pod: Vec<DeviceId> = pod.tors.iter().chain(&pod.leaves).copied().collect();
    let mut text = String::new();
    out!(
        text,
        "\n=== Table 4 / §8.4: safe-boundary emulation scales in L-DC ==="
    );
    out!(text, "Case         #Borders  #Spines  #Leaves    #ToRs  proportion  speakers    VMs whole-VMs  cost cut");
    // Per case: the emulated share of devices, and the hourly-cost cut.
    let mut cases = Vec::new();
    for (case, must) in [("One Pod", one_pod), ("All Spines", dc.spines())] {
        let emulated = find_safe_dc_boundary(&dc.topo, &must);
        let speakers = Classification::new(&dc.topo, &emulated).speakers();
        let devices: Vec<DeviceId> = emulated.into_iter().collect();
        let plan = plan_vms(&dc.topo, &devices, &speakers, &plan_opts);
        let count = |role| {
            devices
                .iter()
                .filter(|&&d| dc.topo.device(d).role == role)
                .count()
        };
        let [b, s, l, t] = [Role::Border, Role::Spine, Role::Leaf, Role::Tor].map(count);
        let share = devices.len() as f64 / whole.len() as f64;
        let cut = 1.0 - plan.hourly_cost_usd() / whole_plan.hourly_cost_usd();
        let (pct, cut_pct, n, vms) = (share * 100.0, cut * 100.0, speakers.len(), plan.vm_count());
        out!(text, "{case:<12} {b:>8} {s:>8} {l:>8} {t:>8} {pct:>10.1}% {n:>9} {vms:>6} {whole_vms:>9} {cut_pct:>8.1}%");
        cases.push((share, cut));
    }
    out!(
        text,
        "paper: One Pod = 4/64/4/16 (<=2%), All Spines = 12/112/0/0 (<=3%), cost cut > 90%"
    );
    let [(pod, pod_cut), (spines, spines_cut)] = cases[..] else {
        unreachable!("Table 4 has two cases")
    };
    let pct = |x: f64| format!("{:.1}%", x * 100.0);
    let cuts = format!("{} / {}", pct(pod_cut), pct(spines_cut));
    let claims = vec![
        claim("One Pod is ≤ 2% of devices", pct(pod), pod <= 0.02),
        claim("All Spines is ≤ 3% of devices", pct(spines), spines <= 0.03),
        claim(
            "both cut the cost by over 90%",
            cuts,
            pod_cut.min(spines_cut) > 0.9,
        ),
    ];
    PaperResult::new(text, "Table 4", claims)
}
