//! §7 Case 1: de-risking a migration to new regional backbones.
//!
//! Two datacenters' inter-DC traffic must move from the legacy WAN onto
//! new regional backbone routers without disruption. The rehearsal
//! emulation catches a tool bug (it powers a border router down instead
//! of shutting its WAN sessions); the perfected plan then drains the WAN
//! sessions and the probes confirm traffic shifted onto the backbone.
//!
//! ```sh
//! cargo run --release --example regional_migration
//! ```

use crystalnet::prelude::*;
use crystalnet::run_case1_with;

fn main() {
    let options = MockupOptions::builder().seed(2026).build();
    let report = run_case1_with(&options);

    println!("=== rehearsal (buggy tooling) ===");
    print!("{}", report.rehearsal.summary());
    println!("bugs caught before production: {}", report.bugs_caught);

    println!("\n=== final migration run (fixed tooling) ===");
    print!("{}", report.final_run.summary());
    println!(
        "\nmigration {} on {} VMs (the paper's run used 150)",
        if report.no_disruption {
            "completed with no disruption"
        } else {
            "DISRUPTED — do not ship"
        },
        report.vms_used
    );

    println!("\n=== run report (final migration emulation) ===");
    print!("{}", report.report.summary());
}
