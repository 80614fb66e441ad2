//! Table 1 (incident coverage) and Figure 1 (aggregation imbalance)
//! regenerators.

use crate::{claim, PaperResult};
use crystalnet::scenarios::{fig1_emulation, fig1_split};
use crystalnet::{run_all_scenarios, MockupOptions, RootCause, ScenarioResult};
use crystalnet_net::fixtures::fig1 as fig1_topology;
use crystalnet_net::Ipv4Addr;
use crystalnet_routing::{MgmtCommand, MgmtResponse};

/// Each root cause with its Table 1 label, in the paper's order.
const CAUSES: [(RootCause, &str); 4] = [
    (RootCause::SoftwareBug, "software"),
    (RootCause::ConfigBug, "config"),
    (RootCause::HumanError, "human"),
    (RootCause::HardwareFailure, "hardware"),
];

/// Table 1: the incident suite's coverage matrix, and the paper's claims
/// on what the emulation and verification each catch.
pub fn table1(seed: u64) -> PaperResult {
    let results = run_all_scenarios(seed);
    let mut text = String::new();
    out!(text, "\n=== Table 1: incident root causes and coverage ===");
    out!(text, "Cause      Scenario                                                   CrystalNet  Verification");
    for r in &results {
        let (_, cause) = CAUSES.iter().find(|(c, _)| *c == r.cause).expect("listed");
        let [found, covered] =
            [r.detected, r.verification_covers].map(|b| if b { "yes" } else { "no" });
        out!(text, "{cause:<10} {:<58} {found:>10} {covered:>13}", r.name);
    }
    // Aggregate coverage per class, next to the paper's proportions.
    out!(
        text,
        "\nper-class coverage (paper proportion of incidents):"
    );
    for (cause, _) in CAUSES {
        let class: Vec<&ScenarioResult> = results.iter().filter(|r| r.cause == cause).collect();
        let detected = class.iter().filter(|r| r.detected).count();
        let share = (cause.paper_proportion() * 100.0).round();
        let n = class.len();
        out!(
            text,
            "  {cause:?}: {detected}/{n} scenarios detected ({share}% of production incidents)"
        );
    }
    let missed: Vec<&ScenarioResult> = results.iter().filter(|r| !r.detected).collect();
    let names: Vec<&str> = missed.iter().map(|r| r.name.as_str()).collect();
    let config_level = |r: &ScenarioResult| {
        matches!(r.cause, RootCause::ConfigBug | RootCause::HumanError) == r.verification_covers
    };
    let covered = results.iter().filter(|r| r.verification_covers).count();
    let n = results.len();
    let claims = vec![
        claim(
            "the emulation detects every scenario but one",
            format!("{}/{n}", n - missed.len()),
            missed.len() == 1,
        ),
        claim(
            "the miss is hardware, the paper's §9 limitation",
            names.join(", "),
            missed.iter().all(|r| r.cause == RootCause::HardwareFailure),
        ),
        claim(
            "verification covers exactly the config and human scenarios",
            format!("{covered}/{n} covered"),
            results.iter().all(config_level),
        ),
    ];
    PaperResult::new(text, "Table 1", claims)
}

/// Figure 1: R8's winning route for the aggregate P3, and the traffic
/// split of `flows` telemetry probes toward it between R6 and R7.
pub fn fig1(seed: u64, flows: u32) -> PaperResult {
    let f = fig1_topology();
    let mut emu = fig1_emulation(&f, MockupOptions::builder().seed(seed).build());
    // Pull R8's route for P3 via the management plane.
    let path_len = match emu.sim.mgmt_sync(f.routers[7], MgmtCommand::ShowRoutes) {
        Some(MgmtResponse::Routes(rows)) => rows.iter().find(|(p, _, _)| *p == f.p3).map(|r| r.1),
        _ => None,
    };
    let path_len = path_len.unwrap_or(0);
    let probes = (0..flows).map(|flow| {
        let src = Ipv4Addr::new(203, 0, (flow >> 8) as u8, flow as u8);
        (src, f.p3.nth(flow * 13 + 1))
    });
    let (via_r6, via_r7) = fig1_split(&mut emu, &f, probes);
    let mut text = String::new();
    out!(
        text,
        "\n=== Figure 1: vendor-divergent aggregation imbalance ==="
    );
    out!(
        text,
        "R8's winning aggregate AS-path length: {path_len} (Vendor-C announces {{7}} only)"
    );
    out!(text, "traffic split toward P3: R6 {via_r6} flows, R7 {via_r7} flows — paper: \"R8 always prefers R7\"");
    let claims = vec![
        claim(
            "R8 always prefers R7, which carries every flow",
            format!("R6 carried {via_r6}, R7 carried {via_r7}"),
            via_r6 == 0 && via_r7 == flows,
        ),
        claim(
            "R8 picks R7's aggregate, whose AS path is R7's own AS",
            format!("AS-path length {path_len}"),
            path_len == 1,
        ),
    ];
    PaperResult::new(text, "Figure 1", claims)
}
