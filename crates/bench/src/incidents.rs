//! Table 1 (incident coverage) and Figure 1 (aggregation imbalance)
//! regenerators.

use crystalnet::scenarios::{fig1_emulation, fig1_split};
use crystalnet::{run_all_scenarios, MockupOptions, RootCause, ScenarioResult};
use crystalnet_net::fixtures::fig1;
use crystalnet_net::Ipv4Addr;

/// Runs the incident suite and prints the Table 1 coverage matrix.
pub fn print_table1(seed: u64) -> Vec<ScenarioResult> {
    let results = run_all_scenarios(seed);
    println!("\n=== Table 1: incident root causes and coverage ===");
    println!(
        "{:<10} {:<58} {:>10} {:>13}",
        "Cause", "Scenario", "CrystalNet", "Verification"
    );
    let mark = |b: bool| if b { "yes" } else { "no" };
    for r in &results {
        println!(
            "{:<10} {:<58} {:>10} {:>13}",
            match r.cause {
                RootCause::SoftwareBug => "software",
                RootCause::ConfigBug => "config",
                RootCause::HumanError => "human",
                RootCause::HardwareFailure => "hardware",
            },
            r.name,
            mark(r.detected),
            mark(r.verification_covers),
        );
    }
    // Aggregate coverage per class, next to the paper's proportions.
    println!("\nper-class coverage (paper proportion of incidents):");
    for cause in [
        RootCause::SoftwareBug,
        RootCause::ConfigBug,
        RootCause::HumanError,
        RootCause::HardwareFailure,
    ] {
        let class: Vec<&ScenarioResult> = results.iter().filter(|r| r.cause == cause).collect();
        let detected = class.iter().filter(|r| r.detected).count();
        println!(
            "  {:?}: {detected}/{} scenarios detected ({}% of production incidents)",
            cause,
            class.len(),
            (cause.paper_proportion() * 100.0) as u32
        );
    }
    results
}

/// The Figure 1 measurement: per-router traffic share for the aggregate.
pub struct Fig1Result {
    /// Flows carried via R6 (Vendor-A).
    pub via_r6: u32,
    /// Flows carried via R7 (Vendor-C).
    pub via_r7: u32,
    /// AS-path length of the winning aggregate at R8.
    pub winning_path_len: usize,
}

/// Reproduces Figure 1 with `flows` telemetry probes.
#[must_use]
pub fn run_fig1(seed: u64, flows: u32) -> Fig1Result {
    let f = fig1();
    let mut emu = fig1_emulation(&f, MockupOptions::builder().seed(seed).build());

    // Pull R8's route for P3 via the management plane.
    let winning_path_len = match emu
        .sim
        .mgmt_sync(f.routers[7], crystalnet_routing::MgmtCommand::ShowRoutes)
    {
        Some(crystalnet_routing::MgmtResponse::Routes(rows)) => rows
            .iter()
            .find(|(p, _, _)| *p == f.p3)
            .map(|(_, len, _)| *len)
            .unwrap_or(0),
        _ => 0,
    };

    let flows = (0..flows).map(|flow| {
        let src = Ipv4Addr::new(203, 0, (flow >> 8) as u8, flow as u8);
        (src, f.p3.nth(flow * 13 + 1))
    });
    let (via_r6, via_r7) = fig1_split(&mut emu, &f, flows);
    Fig1Result {
        via_r6,
        via_r7,
        winning_path_len,
    }
}

/// Prints the Figure 1 result.
pub fn print_fig1(r: &Fig1Result) {
    println!("\n=== Figure 1: vendor-divergent aggregation imbalance ===");
    println!(
        "R8's winning aggregate AS-path length: {} (Vendor-C announces {{7}} only)",
        r.winning_path_len
    );
    println!(
        "traffic split toward P3: R6 {} flows, R7 {} flows — paper: \"R8 always prefers R7\"",
        r.via_r6, r.via_r7
    );
}
