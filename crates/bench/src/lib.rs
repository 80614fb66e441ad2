//! Regenerates every table and figure in the CrystalNet paper's
//! evaluation (plus the DESIGN.md ablations) through one binary:
//!
//! ```text
//! cargo run --release -p crystalnet-bench --bin paper -- <name>
//! ```
//!
//! where `<name>` is a row of [`SUBCOMMANDS`], or `all` for every row in
//! order. Everything printed is a deterministic virtual-time result;
//! performance numbers are not produced here — the instrument for those
//! is the standalone `benchmark/` package (contract in `BENCHMARK.json`).
//!
//! Scaling: `CRYSTALNET_FULL=1` for full L-DC, `CRYSTALNET_REPS=n` to
//! change Figure 8's repetition count (default 10, as in the paper).

pub mod boundaries;
pub mod config;
pub mod fig8;
pub mod fig9;
pub mod incidents;
pub mod ops;
pub mod tables;

/// The `paper` binary's dispatch table: one subcommand per table or
/// figure, in the order `all` runs them. The docs test reads the names
/// from here, so a documented command cannot outlive its subcommand.
pub const SUBCOMMANDS: [(&str, fn()); 8] = [
    ("table1", || {
        incidents::print_table1(42);
    }),
    ("fig1", || {
        incidents::print_fig1(&incidents::run_fig1(7, 200));
    }),
    ("fig7", || boundaries::print_fig7(&boundaries::run_fig7())),
    ("table3", || tables::print_table3(&tables::table3())),
    ("table4", || tables::print_table4(&tables::table4())),
    ("fig8", fig8),
    ("fig9", fig9),
    ("sec83", sec83),
];

/// Figure 8: start/stop latencies across scales and fleets, then the
/// paper's claims checked against the rows.
fn fig8() {
    let rows: Vec<_> = config::figure8_configs()
        .iter()
        .map(|cfg| {
            eprintln!("fig8: running {} ({} reps)...", cfg.label, config::reps());
            fig8::run_config(cfg)
        })
        .collect();
    fig8::print_table(&rows);
    println!("\nFigure 8 claim checks:");
    for (claim, ok) in fig8::verdicts(&rows) {
        println!("  [{}] {claim}", if ok { "ok" } else { "FAIL" });
    }
}

/// Figure 9: p95 VM CPU utilization during Mockup.
fn fig9() {
    let series: Vec<_> = config::figure8_configs()
        .iter()
        .map(|cfg| {
            eprintln!("fig9: running {}...", cfg.label);
            fig9::run_config(cfg, 1)
        })
        .collect();
    fig9::print_series(&series);
}

/// §8.3 reload and recovery, plus the DESIGN.md ablations (bridge
/// implementation, vendor grouping).
fn sec83() {
    ops::print_reload(&ops::reload_comparison(3));
    ops::print_recovery(&ops::recovery_by_density(4));
    ops::print_fault_recovery(&ops::recovery_by_fault_kind(7));
    let cfgs = config::figure8_configs();
    ops::print_ablation(
        "Linux bridge vs OVS (S-DC/5)",
        &ops::bridge_ablation(&cfgs[0], 5),
    );
    ops::print_ablation("vendor grouping on/off (S-DC)", &ops::grouping_ablation(6));
}
