//! Benchmark harness regenerating every table and figure in the
//! CrystalNet paper's evaluation (plus the DESIGN.md ablations).
//!
//! Two entry styles:
//! * `cargo bench -p crystalnet-bench` runs the four bench targets:
//!   `paper_figures` (all tables/figures, env-scaled), `micro`
//!   (criterion micro-benchmarks of the hot substrate paths),
//!   `recovery_latency` (§6/§8.3 fault recovery, writes
//!   `target/BENCH_recovery.json`) and `convergence_scaling` (serial vs
//!   sharded executor, writes `target/BENCH_convergence.json`);
//! * `cargo run --release -p crystalnet-bench --bin <figure>` regenerates
//!   one artifact.
//!
//! Performance numbers are not produced here: the instrument for those
//! is the standalone `benchmark/` package (contract in `BENCHMARK.json`).
//!
//! Scaling: `CRYSTALNET_FULL=1` for full L-DC, `CRYSTALNET_REPS=n` to
//! change the repetition count (default 10 for the paper figures, as in
//! the paper; 3 for the two JSON-emitting benches).

pub mod boundaries;
pub mod config;
pub mod fig8;
pub mod fig9;
pub mod incidents;
pub mod meta;
pub mod ops;
pub mod tables;
